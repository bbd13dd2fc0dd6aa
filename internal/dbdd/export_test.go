package dbdd

// Accessors that only tests read.

// Dim returns the current lattice dimension (with homogenization).
func (in *Instance) Dim() int { return in.dim }

// LogVol returns ln(volume) of the current lattice.
func (in *Instance) LogVol() float64 { return in.logVol }

// HintCount returns how many hints have been integrated.
func (in *Instance) HintCount() int { return in.nHints }
