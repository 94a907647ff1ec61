package sim

// Pool is a free list of the records procs await (Proc.Await). An
// awaited op outlives the awaiting call's stack frame — the engine
// steps it from events — so an op on the proc's stack would escape to
// the heap at every call; components keep their op records in a Pool
// instead, and a proc takes one, awaits it and puts it back. A pool is
// made with poolReserve records, in one allocation with the pool; past
// them, Take makes a record, and every record is reused once put back.
type Pool[T any] struct {
	free []*T
}

// poolReserve is the records a pool is made with, so that a run's
// awaits allocate nothing: the most records of one type in use at once
// on one engine of the benchmark's workloads, 9 ring ops on
// fabric_incast's nine hosts (EXPERIMENTS.md, "Await records in use").
// One reserve for every type keeps each pool one allocation.
const poolReserve = 9

// poolBlock is a pool with its reserve, made in one allocation.
type poolBlock[T any] struct {
	Pool[T]
	recs  [poolReserve]T
	slots [poolReserve]*T
}

// PoolOf returns e's pool of T records, making it on first use.
// Components make theirs at construction, so that the reserve is not
// made during a run. Every component on e whose procs await ops of
// type T shares the pool, so a system built inside a measured run adds
// one pool per record type, not one per component: a board alone has
// 48 rings.
func PoolOf[T any](e *Engine) *Pool[T] {
	for _, x := range e.pools {
		if pl, ok := x.(*Pool[T]); ok {
			return pl
		}
	}
	b := new(poolBlock[T])
	b.free = b.slots[:0]
	for i := range b.recs {
		b.free = append(b.free, &b.recs[i])
	}
	e.pools = append(e.pools, &b.Pool)
	return &b.Pool
}

// Take takes a record from the pool. Its contents are whatever its last
// user left; the caller sets it up.
func (pl *Pool[T]) Take() *T {
	n := len(pl.free) - 1
	if n < 0 {
		return new(T)
	}
	x := pl.free[n]
	pl.free = pl.free[:n]
	return x
}

// Put returns a record taken with Take.
func (pl *Pool[T]) Put(x *T) { pl.free = append(pl.free, x) }
