package coord

// SweepNow runs one lease/deadline pass at once, so a test can place
// the sweep between two scripted frames instead of racing the ticker.
func (c *Coordinator) SweepNow() { c.sweep() }
