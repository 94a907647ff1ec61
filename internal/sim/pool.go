package sim

import (
	"errors"
	"fmt"
	"slices"
)

// Pool is the free list of every record the model reuses instead of
// allocating: the op records procs await (PoolOf) and each component's
// own records. A record is taken, held by one party at a time and put
// back; the pool counts the records out, so that when the engine has
// run dry Check can compare the count with the records live state
// holds (DESIGN §7 "Records"), and a put without a take panics. Take
// returns the zero T when the pool is empty: a pointer site makes its
// record then (TakeNew), and a slice site appends to the nil slice.
type Pool[T any] struct {
	free []T
	out  int
}

// Stock gives an empty pool recs, made at construction, as its free
// list. They were never taken, so they do not count as out.
func (pl *Pool[T]) Stock(recs []T) { pl.free = recs }

// Reserve adds recs, records a component made at construction, to pl's
// free list, so that the takes its capacity allows find a record
// without making one. They were never taken, so they do not count as
// out.
func Reserve[T any](pl *Pool[*T], recs []T) {
	pl.free = slices.Grow(pl.free, len(recs))
	for i := range recs {
		pl.free = append(pl.free, &recs[i])
	}
}

// Take takes a record, or the zero T if the pool has none. A record
// holds whatever its last user left; the caller sets it up.
func (pl *Pool[T]) Take() (x T) {
	pl.out++
	if n := len(pl.free) - 1; n >= 0 {
		x, pl.free = pl.free[n], pl.free[:n]
	}
	return x
}

// Put returns a record taken with Take. It panics if none is out.
func (pl *Pool[T]) Put(x T) {
	if pl.out == 0 {
		panic("sim: Pool.Put without a Take")
	}
	pl.out--
	pl.free = append(pl.free, x)
}

// Outstanding returns the number of records taken and not put back.
func (pl *Pool[T]) Outstanding() int { return pl.out }

// Free returns the number of records on the free list. With
// Outstanding it counts every record the pool has handed out or been
// stocked with, so a total that grows across a run counts the records
// the run had to make.
func (pl *Pool[T]) Free() int { return len(pl.free) }

// Check reports an error, naming the pool, if the records out differ
// from held, the number live state holds.
func (pl *Pool[T]) Check(name string, held int) error {
	if pl.out != held {
		return fmt.Errorf("%s: %d records out, live state holds %d", name, pl.out, held)
	}
	return nil
}

// TakeNew takes a record from pl, making one if pl has none.
func TakeNew[T any](pl *Pool[*T]) *T {
	if x := pl.Take(); x != nil {
		return x
	}
	return new(T)
}

// poolReserve is the records an awaited-op pool is made with, so that a
// run's awaits allocate nothing: the most records of one type in use at
// once on one engine of the benchmark's workloads, 9 ring ops on
// fabric_incast's nine hosts (EXPERIMENTS.md, "Await records in use").
// One reserve for every type keeps each pool one allocation.
const poolReserve = 9

// poolBlock is an awaited-op pool with its reserve, made in one
// allocation.
type poolBlock[T any] struct {
	Pool[*T]
	recs  [poolReserve]T
	slots [poolReserve]*T
}

// PoolOf returns e's pool of T records, making it on first use: the
// pools of the records procs await, and the cell store (atm.CellStore).
// An awaited op outlives the awaiting call's stack frame, so on the
// proc's stack it would escape to the heap at every call; a proc takes
// a record, awaits it and puts it back. Components make theirs at
// construction, so that the reserve is not made during a run. Every
// component on e that uses records of type T shares the pool, so a
// system built inside a measured run adds one pool per record type, not
// one per component: a board alone has 48 rings.
func PoolOf[T any](e *Engine) *Pool[*T] {
	for _, x := range e.pools {
		if pl, ok := x.(*Pool[*T]); ok {
			return pl
		}
	}
	b := new(poolBlock[T])
	for i := range b.recs {
		b.slots[i] = &b.recs[i]
	}
	b.Stock(b.slots[:])
	e.pools = append(e.pools, &b.Pool)
	return &b.Pool
}

// CheckPools is the engine's half of the quiesce check, for when e has
// run dry: no record of an engine pool (PoolOf) may be out. No proc is
// inside an await, and no link, switch or board holds a cell once its
// events are done. Each component with pools of its own (a host, a
// board, a driver, a protocol) checks them with its own CheckPools.
func (e *Engine) CheckPools() error {
	var err error
	for _, x := range e.pools {
		if n := x.Outstanding(); n != 0 {
			err = errors.Join(err, fmt.Errorf("%T: %d records out", x, n))
		}
	}
	return err
}
