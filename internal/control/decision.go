package control

// Decision is one recorded control-plane adjustment: the pressure level
// that was decided, the inputs that triggered it, and the knob values
// before and after. One is recorded per Observe call that changed the level
// or the knobs.
type Decision struct {
	// Seq is the decision's ordinal (1 = first decision recorded).
	Seq uint64 `json:"seq"`
	// Level is the pressure level in force after this decision.
	Level Level `json:"level"`
	// In is the observation that triggered the decision.
	In Inputs `json:"inputs"`
	// Before and After are the knob values around the adjustment.
	Before Knobs `json:"before"`
	After  Knobs `json:"after"`
}
