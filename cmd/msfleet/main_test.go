package main

import (
	"math"
	"testing"

	"minesweeper/internal/fleet"
)

// FuzzClassSpec feeds one -class spec through the flag parser and then
// fleet.Config.Validate, as msfleet does before building a host. Neither
// may panic, and any class both accept must carry finite weight, lambda and
// burst: a NaN or infinite share would poison the arbiter's arithmetic.
func FuzzClassSpec(f *testing.F) {
	for _, s := range []string{
		"gold:prio=0,weight=4,tenants=8,floor=1M,workload=cache,lambda=3",
		"bulk:prio=2,weight=1,tenants=24,floor=256K,workload=burst,lambda=5,burst=4",
		"x:weight=NaN",
		"x:lambda=Inf,burst=-Inf",
		"x:tenants=17179869184,floor=1G",
		"x:floor=16777216T",
		"nocolon",
		":weight=1",
		"x:weight",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		var classes classList
		if err := classes.Set(spec); err != nil {
			return
		}
		cfg := fleet.Config{HostBudget: 64 << 20, Classes: classes}
		if err := cfg.Validate(); err != nil {
			return
		}
		for _, cl := range cfg.Classes {
			for _, v := range []float64{cl.Weight, cl.Lambda, cl.Burst} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("spec %q accepted with non-finite field: %+v", spec, cl)
				}
			}
		}
	})
}
