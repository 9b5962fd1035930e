package cluster

import "time"

// RestartGCEvery replaces the GC loop with one that runs every interval
// instead of every gcInterval, so a test sees many rounds. It is exported
// for the tests of this package that live outside it.
func (c *Cluster) RestartGCEvery(every time.Duration) {
	c.StopGC()
	c.startGC(every)
}
