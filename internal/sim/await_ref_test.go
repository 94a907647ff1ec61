package sim

// This file keeps the loop every proc ran a continuation-form
// operation with before Proc.Await, as the reference
// FuzzAwaitMatchesPark compares Await against: step the operation with
// the proc's own continuation and park after every wait, so the proc
// is switched back in at each one.

// parkLoop runs op to completion from p, resuming p at every wait.
func parkLoop(p *Proc, op Op) {
	for !op.Step(p.Cont()) {
		p.block()
	}
}
