package workloads

// BuildAt builds s at shape sh instead of its declared one, for the
// tests that perturb a shape.
func BuildAt(s *Spec, sh Shape, scale int) *Instance { return s.build(s, sh, scale) }
