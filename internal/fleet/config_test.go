package fleet

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// goodConfig returns a config that validates, for per-field mutation tests.
func goodConfig() Config {
	return Config{
		HostBudget: 64 << 20,
		Classes: []Class{
			{Name: "gold", Priority: 0, Weight: 4, Tenants: 2, Floor: 1 << 20, Workload: "cache"},
			{Name: "batch", Priority: 1, Weight: 1, Tenants: 2, Floor: 1 << 20, Workload: "churn", Lambda: 2, Burst: 4},
		},
	}
}

func TestConfigValidateOK(t *testing.T) {
	if err := goodConfig().Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

// TestConfigValidatePerField mutates one field at a time and checks each
// failure wraps ErrBadConfig with a message naming the problem.
func TestConfigValidatePerField(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"zero budget", func(c *Config) { c.HostBudget = 0 }, "host budget"},
		{"no classes", func(c *Config) { c.Classes = nil }, "class"},
		{"negative ticks", func(c *Config) { c.Ticks = -1 }, "ticks"},
		{"negative cadence", func(c *Config) { c.ArbiterEvery = -2 }, "cadence"},
		{"negative noisy", func(c *Config) { c.NoisyTicks = -1 }, "noisy"},
		{"negative workers", func(c *Config) { c.Workers = -1 }, "workers"},
		{"zero tenants", func(c *Config) { c.Classes[0].Tenants = 0 }, "tenants"},
		{"zero weight", func(c *Config) { c.Classes[1].Weight = 0 }, "weight"},
		{"negative priority", func(c *Config) { c.Classes[0].Priority = -1 }, "priority"},
		{"negative lambda", func(c *Config) { c.Classes[1].Lambda = -1 }, "lambda"},
		{"negative burst", func(c *Config) { c.Classes[1].Burst = -0.5 }, "burst"},
		{"bad workload", func(c *Config) { c.Classes[0].Workload = "webscale" }, "workload"},
		{"floor past budget", func(c *Config) { c.Classes[0].Floor = 128 << 20 }, "budget"},
		{"floors sum past budget", func(c *Config) {
			c.Classes[0].Floor = 20 << 20
			c.Classes[1].Floor = 20 << 20
		}, "floors sum past the host budget"},
		// 1<<34 tenants x 1 GiB is 2^64 bytes: the product wraps to 0.
		{"floors product wraps", func(c *Config) {
			c.HostBudget = 1 << 30
			c.Classes[0].Tenants = 1 << 34
			c.Classes[0].Floor = 1 << 30
		}, "floors sum past the host budget"},
		// 2^29 + (2^36-1) x 2^28 = 2^64 + 2^28: the running sum wraps
		// to 256 MiB, under the 1 GiB budget.
		{"floors sum wraps", func(c *Config) {
			c.HostBudget = 1 << 30
			c.Classes[0].Tenants = 1
			c.Classes[0].Floor = 1 << 29
			c.Classes[1].Tenants = 1<<36 - 1
			c.Classes[1].Floor = 1 << 28
		}, "floors sum past the host budget"},
		{"NaN weight", func(c *Config) { c.Classes[0].Weight = math.NaN() }, "weight"},
		{"infinite weight", func(c *Config) { c.Classes[0].Weight = math.Inf(1) }, "weight"},
		{"NaN lambda", func(c *Config) { c.Classes[1].Lambda = math.NaN() }, "lambda"},
		{"infinite lambda", func(c *Config) { c.Classes[1].Lambda = math.Inf(1) }, "lambda"},
		{"NaN burst", func(c *Config) { c.Classes[1].Burst = math.NaN() }, "burst"},
		{"infinite burst", func(c *Config) { c.Classes[1].Burst = math.Inf(1) }, "burst"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := goodConfig()
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("mutation accepted")
			}
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("error %v does not wrap ErrBadConfig", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestNewHostRejectsBadConfig checks the constructor refuses what Validate
// refuses (the CLI leans on this).
func TestNewHostRejectsBadConfig(t *testing.T) {
	cfg := goodConfig()
	cfg.HostBudget = 0
	if _, err := NewHost(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig, got %v", err)
	}
}

// TestConfigTenants checks the class-sum helper.
func TestConfigTenants(t *testing.T) {
	if n := goodConfig().Tenants(); n != 4 {
		t.Fatalf("Tenants() = %d, want 4", n)
	}
}
