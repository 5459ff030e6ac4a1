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
	steps := []struct {
		usage float64
		want  Level
	}{
		{0.50, Nominal},
		{0.79, Nominal},  // below elevatedEnter
		{0.81, Elevated}, // crossed enter
		{0.75, Elevated}, // inside the hysteresis band: stays Elevated
		{0.69, Nominal},  // below elevatedExit: drops
		{0.96, Critical}, // straight to Critical from Nominal
		{0.90, Critical}, // above criticalExit: stays
		{0.84, Elevated}, // below criticalExit but above elevatedEnter
		{0.10, Nominal},
	}
	lvl := Nominal
	for i, s := range steps {
		lvl = nextLevel(lvl, press(s.usage))
		if lvl != s.want {
			t.Fatalf("step %d (usage %.2f): level %v, want %v", i, s.usage, lvl, s.want)
		}
	}
}

func TestHysteresisAgeSignal(t *testing.T) {
	// No budget at all: pressure comes only from quarantine age.
	in := Inputs{AgeEpochs: ageElevated}
	if got := nextLevel(Nominal, in); got != Elevated {
		t.Fatalf("age %d epochs: level %v, want Elevated", in.AgeEpochs, got)
	}
	// Age never downgrades an already-critical level.
	if got := nextLevel(Critical, Inputs{AgeEpochs: 99, RSS: 1 << 30, Budget: 1 << 30}); got != Critical {
		t.Fatalf("critical with old quarantine: level %v, want Critical", got)
	}
	if got := nextLevel(Nominal, Inputs{AgeEpochs: ageElevated - 1}); got != Nominal {
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

// governorScript is a budget-usage ramp through both hysteresis bands and
// back, then the quarantine-age signal with no budget pressure, then a calm
// tail long enough for AIMD to relax all the way to base.
func governorScript() []Inputs {
	var s []Inputs
	for _, u := range []float64{0.50, 0.75, 0.82, 0.90, 0.96, 1.00, 0.90, 0.84, 0.72, 0.60} {
		s = append(s, press(u))
	}
	for _, age := range []uint64{7, 8, 9, 3} {
		in := press(0.30)
		in.AgeEpochs = age
		s = append(s, in)
	}
	for i := 0; i < 12; i++ {
		s = append(s, press(0.30))
	}
	return s
}

// TestGovernorDecisionScript pins every decision a NewAIMD plane makes on a
// fixed script: which observations change something, and the level and the
// knobs before and after each. The table was recorded when the rails,
// bands and AIMD steps were still settable fields, so it holds the
// constants to those fields' defaults exactly.
func TestGovernorDecisionScript(t *testing.T) {
	kn := func(sweep, unmapped, pause float64, helpers, rescan int) Knobs {
		return Knobs{SweepThreshold: sweep, UnmappedFactor: unmapped, PauseThreshold: pause, Helpers: helpers, RescanBudgetPages: rescan}
	}
	want := []struct {
		step          int
		level         Level
		before, after Knobs
	}{
		{2, Elevated, kn(0.15, 9, 3, 6, 512), kn(0.11249999999999999, 6.75, 2.25, 7, 384)},
		{3, Elevated, kn(0.11249999999999999, 6.75, 2.25, 7, 384), kn(0.08437499999999999, 5.0625, 1.6875, 8, 288)},
		{4, Critical, kn(0.08437499999999999, 5.0625, 1.6875, 8, 288), kn(0.042187499999999996, 2.53125, 0.84375, 10, 144)},
		{5, Critical, kn(0.042187499999999996, 2.53125, 0.84375, 10, 144), kn(0.021093749999999998, 1.265625, 0.421875, 12, 72)},
		{6, Critical, kn(0.021093749999999998, 1.265625, 0.421875, 12, 72), kn(0.010546874999999999, 1, 0.375, 14, 64)},
		{7, Elevated, kn(0.010546874999999999, 1, 0.375, 14, 64), kn(0.009375, 1, 0.375, 14, 64)},
		{9, Nominal, kn(0.009375, 1, 0.375, 14, 64), kn(0.028124999999999997, 2.125, 0.75, 13, 128)},
		{10, Nominal, kn(0.028124999999999997, 2.125, 0.75, 13, 128), kn(0.046875, 3.25, 1.125, 12, 192)},
		{11, Elevated, kn(0.046875, 3.25, 1.125, 12, 192), kn(0.03515625, 2.4375, 0.84375, 13, 144)},
		{12, Elevated, kn(0.03515625, 2.4375, 0.84375, 13, 144), kn(0.0263671875, 1.828125, 0.6328125, 14, 108)},
		{13, Nominal, kn(0.0263671875, 1.828125, 0.6328125, 14, 108), kn(0.0451171875, 2.953125, 1.0078125, 13, 172)},
		{14, Nominal, kn(0.0451171875, 2.953125, 1.0078125, 13, 172), kn(0.0638671875, 4.078125, 1.3828125, 12, 236)},
		{15, Nominal, kn(0.0638671875, 4.078125, 1.3828125, 12, 236), kn(0.08261718750000001, 5.203125, 1.7578125, 11, 300)},
		{16, Nominal, kn(0.08261718750000001, 5.203125, 1.7578125, 11, 300), kn(0.10136718750000001, 6.328125, 2.1328125, 10, 364)},
		{17, Nominal, kn(0.10136718750000001, 6.328125, 2.1328125, 10, 364), kn(0.12011718750000001, 7.453125, 2.5078125, 9, 428)},
		{18, Nominal, kn(0.12011718750000001, 7.453125, 2.5078125, 9, 428), kn(0.13886718750000002, 8.578125, 2.8828125, 8, 492)},
		{19, Nominal, kn(0.13886718750000002, 8.578125, 2.8828125, 8, 492), kn(0.15, 9, 3, 7, 512)},
		{20, Nominal, kn(0.15, 9, 3, 7, 512), kn(0.15, 9, 3, 6, 512)},
	}
	base := Knobs{SweepThreshold: 0.15, UnmappedFactor: 9, PauseThreshold: 3, Helpers: 6, RescanBudgetPages: 512}
	p := NewPlane(Config{Base: base, Budget: 1 << 30, Policy: NewAIMD()})
	var i int
	for step, in := range governorScript() {
		d, changed := p.Observe(in)
		if !changed {
			continue
		}
		if i >= len(want) {
			t.Fatalf("step %d: unexpected decision %+v", step, d)
		}
		w := want[i]
		if step != w.step || d.Level != w.level || d.Before != w.before || d.After != w.after {
			t.Fatalf("decision %d at step %d: %v %+v -> %+v, want step %d: %v %+v -> %+v",
				i, step, d.Level, d.Before, d.After, w.step, w.level, w.before, w.after)
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("%d decisions, want %d", i, len(want))
	}
}
