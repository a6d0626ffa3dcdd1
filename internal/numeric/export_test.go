package numeric

// ArenaDraws returns the draws of x's run that its own free list could not
// serve: those the process-wide tier served, and the misses neither tier
// could serve.
func ArenaDraws(x *Executor) (shared, misses int) { return x.arena.shared, x.arena.misses }

// PoisonFree fills every buffer on x's free list — the buffers Close hands
// to later runs — with v.
func PoisonFree(x *Executor, v float64) {
	for _, l := range x.arena.free {
		for _, buf := range l {
			buf = buf[:cap(buf)]
			for i := range buf {
				buf[i] = v
			}
		}
	}
}
