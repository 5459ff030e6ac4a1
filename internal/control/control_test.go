package control

import (
	"bytes"
	"encoding/json"
	"testing"
)

func baseKnobs() Knobs {
	return Knobs{SweepThreshold: 0.15, UnmappedFactor: 9, PauseThreshold: 3, Helpers: 6}
}

// press returns Inputs with the given budget-usage ratio against a 1 GiB
// budget.
func press(usage float64) Inputs {
	const budget = 1 << 30
	return Inputs{RSS: uint64(usage * budget), Budget: budget}
}

func TestHysteresisBands(t *testing.T) {
	b := DefaultBands()
	steps := []struct {
		usage float64
		want  Level
	}{
		{0.50, Nominal},
		{0.79, Nominal},  // below ElevatedEnter
		{0.81, Elevated}, // crossed enter
		{0.75, Elevated}, // inside the hysteresis band: stays Elevated
		{0.69, Nominal},  // below ElevatedExit: drops
		{0.96, Critical}, // straight to Critical from Nominal
		{0.90, Critical}, // above CriticalExit: stays
		{0.84, Elevated}, // below CriticalExit but above ElevatedEnter
		{0.10, Nominal},
	}
	lvl := Nominal
	for i, s := range steps {
		lvl = b.next(lvl, press(s.usage))
		if lvl != s.want {
			t.Fatalf("step %d (usage %.2f): level %v, want %v", i, s.usage, lvl, s.want)
		}
	}
}

func TestHysteresisAgeSignal(t *testing.T) {
	b := DefaultBands()
	// No budget at all: pressure comes only from quarantine age.
	in := Inputs{AgeEpochs: b.AgeElevated}
	if got := b.next(Nominal, in); got != Elevated {
		t.Fatalf("age %d epochs: level %v, want Elevated", in.AgeEpochs, got)
	}
	// Age never downgrades an already-critical level.
	if got := b.next(Critical, Inputs{AgeEpochs: 99, RSS: 1 << 30, Budget: 1 << 30}); got != Critical {
		t.Fatalf("critical with old quarantine: level %v, want Critical", got)
	}
	if got := b.next(Nominal, Inputs{AgeEpochs: b.AgeElevated - 1}); got != Nominal {
		t.Fatalf("age below the bar: level %v, want Nominal", got)
	}
}

func TestStaticPolicyFreezesKnobs(t *testing.T) {
	base := baseKnobs()
	p := NewPlane(Config{Base: base, Budget: 1 << 20})
	if p.PolicyName() != "static" {
		t.Fatalf("default policy %q, want static", p.PolicyName())
	}
	// Hammer it with every pressure level; knobs must never move.
	for _, in := range []Inputs{press(0.1), press(0.9), press(2.0), {AgeEpochs: 100}} {
		p.Observe(in)
		if got := p.Knobs(); got != base {
			t.Fatalf("static knobs drifted: %+v != %+v", got, base)
		}
	}
	// Level transitions are still recorded (observability), knob fields
	// identical before and after.
	for _, d := range p.Ring().Snapshot() {
		if d.Before != base || d.After != base {
			t.Fatalf("static decision changed knobs: %+v", d)
		}
	}
}

func TestAIMDTightenAndRelax(t *testing.T) {
	base := baseKnobs()
	rails := DefaultRails(base)
	pol := NewAIMD()

	// Critical tightens multiplicatively.
	k := pol.Decide(Critical, press(1.0), base, base, rails)
	if k.SweepThreshold >= base.SweepThreshold {
		t.Fatalf("critical did not tighten SweepThreshold: %v", k.SweepThreshold)
	}
	if k.Helpers <= base.Helpers {
		t.Fatalf("critical did not add helpers: %d", k.Helpers)
	}
	// Repeated critical decisions converge to the rails, never below.
	for i := 0; i < 50; i++ {
		k = pol.Decide(Critical, press(1.0), k, base, rails)
		if !rails.Contains(k) {
			t.Fatalf("iteration %d escaped rails: %+v vs %+v", i, k, rails)
		}
	}
	if k.SweepThreshold != rails.SweepThresholdMin {
		t.Fatalf("tightening floor %v, want %v", k.SweepThreshold, rails.SweepThresholdMin)
	}
	if k.Helpers != rails.HelpersMax {
		t.Fatalf("helpers ceiling %d, want %d", k.Helpers, rails.HelpersMax)
	}

	// Nominal relaxes additively back to base, never past it.
	for i := 0; i < 100; i++ {
		k = pol.Decide(Nominal, press(0.1), k, base, rails)
		if !rails.Contains(k) {
			t.Fatalf("relax iteration %d escaped rails: %+v", i, k)
		}
	}
	if k != base {
		t.Fatalf("relaxation did not converge to base: %+v != %+v", k, base)
	}
}

func TestAIMDRelaxIsGradual(t *testing.T) {
	base := baseKnobs()
	rails := DefaultRails(base)
	pol := NewAIMD()
	k := pol.Decide(Critical, press(1.0), base, base, rails)
	r1 := pol.Decide(Nominal, press(0.1), k, base, rails)
	if r1 == base {
		t.Fatal("one calm decision jumped straight back to base (additive increase should be gradual)")
	}
	if r1.SweepThreshold <= k.SweepThreshold {
		t.Fatalf("calm decision did not relax: %v -> %v", k.SweepThreshold, r1.SweepThreshold)
	}
}

func TestDefaultRailsDisabledKnobsStayDisabled(t *testing.T) {
	base := Knobs{SweepThreshold: 0.15, UnmappedFactor: 0, PauseThreshold: 0, Helpers: 0}
	rails := DefaultRails(base)
	k := NewAIMD().Decide(Critical, press(1.0), base, base, rails)
	if k.UnmappedFactor != 0 {
		t.Fatalf("governor enabled the disabled unmapped trigger: %v", k.UnmappedFactor)
	}
	if k.PauseThreshold != 0 {
		t.Fatalf("governor enabled the disabled pause brake: %v", k.PauseThreshold)
	}
}

func TestPlaneObserveRecordsOnlyChanges(t *testing.T) {
	base := baseKnobs()
	p := NewPlane(Config{Base: base, Budget: 1 << 30, Policy: NewAIMD()})
	// Calm observations at base knobs: nothing to adjust, nothing recorded.
	for i := 0; i < 5; i++ {
		if _, changed := p.Observe(press(0.1)); changed {
			t.Fatalf("calm observation %d at base knobs recorded a decision", i)
		}
	}
	if p.Ring().Total() != 0 {
		t.Fatalf("ring holds %d decisions after no-op observations", p.Ring().Total())
	}
	if p.Observations() != 5 {
		t.Fatalf("observations %d, want 5", p.Observations())
	}
	// Pressure: each observation tightens until the rails stop it.
	d, changed := p.Observe(press(1.0))
	if !changed {
		t.Fatal("pressured observation recorded nothing")
	}
	if d.Level != Critical {
		t.Fatalf("level %v, want Critical", d.Level)
	}
	if d.Before != base || d.After == base {
		t.Fatalf("decision before/after wrong: %+v", d)
	}
	if got := p.Knobs(); got != d.After {
		t.Fatalf("published knobs %+v != decision %+v", got, d.After)
	}
}

func TestPlaneConvergesUnderSustainedPressure(t *testing.T) {
	base := baseKnobs()
	p := NewPlane(Config{Base: base, Budget: 1 << 30, Policy: NewAIMD()})
	for i := 0; i < 100; i++ {
		p.Observe(press(1.2))
		if k := p.Knobs(); !p.Rails().Contains(k) {
			t.Fatalf("observation %d escaped rails: %+v", i, k)
		}
	}
	k := p.Knobs()
	if k.SweepThreshold != p.Rails().SweepThresholdMin || k.Helpers != p.Rails().HelpersMax {
		t.Fatalf("sustained pressure did not reach the rails: %+v vs %+v", k, p.Rails())
	}
	// Once fully tightened, further pressured observations are no-ops.
	before := p.Ring().Total()
	p.Observe(press(1.2))
	if p.Ring().Total() != before {
		t.Fatal("fully-tightened plane still records decisions")
	}
	// And sustained calm returns exactly to base.
	for i := 0; i < 100; i++ {
		p.Observe(press(0.1))
	}
	if got := p.Knobs(); got != base {
		t.Fatalf("calm recovery ended at %+v, want %+v", got, base)
	}
}

func TestStateJSONRoundTrip(t *testing.T) {
	p := NewPlane(Config{Base: baseKnobs(), Budget: 1 << 30, Policy: NewAIMD()})
	p.Observe(press(1.0))
	p.Observe(press(0.1))
	st := p.State()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	var got State
	if err := json.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Policy != "aimd" || got.Level != st.Level || got.Knobs != st.Knobs || got.Budget != st.Budget {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, st)
	}
	if len(got.Decisions) != len(st.Decisions) {
		t.Fatalf("decisions %d, want %d", len(got.Decisions), len(st.Decisions))
	}
	for i := range got.Decisions {
		if got.Decisions[i] != st.Decisions[i] {
			t.Fatalf("decision %d mismatch", i)
		}
	}
}

func TestLevelJSON(t *testing.T) {
	b, err := json.Marshal(Critical)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"critical"` {
		t.Fatalf("marshal: %s", b)
	}
	var l Level
	if err := json.Unmarshal([]byte(`"elevated"`), &l); err != nil || l != Elevated {
		t.Fatalf("unmarshal name: %v %v", l, err)
	}
	if err := json.Unmarshal([]byte(`2`), &l); err != nil || l != Critical {
		t.Fatalf("unmarshal number: %v %v", l, err)
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &l); err == nil {
		t.Fatal("unmarshal bogus name succeeded")
	}
}
