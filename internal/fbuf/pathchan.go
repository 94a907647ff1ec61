package fbuf

import (
	"fmt"
	"time"

	"repro/internal/atm"
	"repro/internal/board"
	"repro/internal/driver"
	"repro/internal/hostsim"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
)

// PathChannel is the §3.1 driver strategy realized end to end: a
// dedicated board queue-page channel whose receive buffers are cached
// fbufs, pre-mapped into every protection domain of one data path.
// Because the adaptor demultiplexes on the VCI before storing anything,
// each incoming PDU is DMA'd directly into memory that the device
// driver, any intermediate servers, and the application can already
// see — the cross-domain transfers that remain are reference hand-offs.
type PathChannel struct {
	VCI     atm.VCI
	Domains []*Domain
	drv     *driver.Driver
	mgr     *Manager
	byFrame map[mem.Frame]*Fbuf
	handler func(p *sim.Proc, f *Fbuf, off, n int)
	// Stats.
	Delivered int64
}

// ProvisionPath builds a PathChannel on board channel index idx for the
// given VCI: it allocates count physically contiguous fbufs of size
// bufBytes, maps them into every domain in the chain (connection-setup
// cost, charged to p), authorizes exactly those pages with the board,
// and starts a channel driver whose receive pool is those fbufs.
//
// Each delivered PDU must fit one buffer (bufBytes ≥ the path's largest
// PDU); the handler sees the fbuf plus the PDU's extent within it and
// may read through any domain in the chain.
func ProvisionPath(p *sim.Proc, h *hostsim.Host, b *board.Board, mgr *Manager,
	idx int, vci atm.VCI, domains []*Domain, count, bufBytes int) (*PathChannel, error) {
	if len(domains) == 0 {
		return nil, fmt.Errorf("fbuf: path needs at least one domain")
	}
	ps := h.Mem.PageSize()
	pages := (bufBytes + ps - 1) / ps

	pc := &PathChannel{
		VCI:     vci,
		Domains: domains,
		mgr:     mgr,
		byFrame: make(map[mem.Frame]*Fbuf),
	}
	var runs [][]mem.Frame
	var allowed []mem.Frame
	for i := 0; i < count; i++ {
		frames, err := h.Mem.AllocContiguous(pages)
		if err != nil {
			return nil, fmt.Errorf("fbuf: contiguous fbuf allocation: %w", err)
		}
		f := &Fbuf{
			mgr:    mgr,
			frames: frames,
			size:   pages * ps,
			vas:    make([]mapping, 0, len(domains)),
			cached: true,
			path:   vci,
		}
		for _, d := range domains {
			va, err := d.Space.MapFrames(frames)
			if err != nil {
				return nil, err
			}
			f.vas = append(f.vas, mapping{d, va})
			h.Compute(p, profMapCost(h, pages))
		}
		for _, fr := range frames {
			pc.byFrame[fr] = f
		}
		runs = append(runs, frames)
		allowed = append(allowed, frames...)
	}

	b.OpenChannel(idx, 1, allowed)
	b.BindVCI(vci, idx)
	reserve := count / 4
	if reserve == 0 {
		reserve = 1
	}
	pc.drv = driver.New(p.Engine(), h, b, driver.Config{
		ChannelIndex: idx,
		Space:        domains[0].Space,
		BufferFrames: runs,
		ReserveBufs:  reserve,
		Cache:        driver.CacheNone,
	})
	pc.drv.OpenPath(vci, pc.deliver)
	return pc, nil
}

func profMapCost(h *hostsim.Host, pages int) time.Duration {
	return time.Duration(pages) * h.Prof.FbufMapPerPage
}

// SetHandler installs the per-PDU consumer. The fbuf's contents are
// valid until the buffer cycles back through the free ring, i.e. the
// consumer should finish (or hand the reference on) before returning.
func (pc *PathChannel) SetHandler(fn func(p *sim.Proc, f *Fbuf, off, n int)) {
	pc.handler = fn
}

// Driver exposes the underlying channel driver.
func (pc *PathChannel) Driver() *driver.Driver { return pc.drv }

// deliver maps the driver's buffer view back to its fbuf and invokes the
// consumer: zero copies, zero page mappings on the data path.
func (pc *PathChannel) deliver(p *sim.Proc, m *msg.Message) {
	segs, err := m.PhysSegments()
	if err != nil || len(segs) == 0 {
		return
	}
	f := pc.byFrame[pc.mgr.host.Mem.FrameOf(segs[0].Addr)]
	if f == nil {
		return
	}
	base := pc.mgr.host.Mem.FrameAddr(f.frames[0])
	off := int(segs[0].Addr - base)
	pc.Delivered++
	if pc.handler != nil {
		pc.handler(p, f, off, m.Len())
	}
}
