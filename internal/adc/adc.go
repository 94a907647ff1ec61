// Package adc implements application device channels (§3.2): restricted
// but direct application access to the OSIRIS adaptor, bypassing the
// operating system kernel on both the control and the data path.
//
// The OS's role is confined to connection establishment and
// termination: it picks a free transmit/receive queue-page pair, maps
// it into the application's address space, assigns the channel a VCI
// set, a priority, and a list of physical pages the application may
// legally use as buffers — enforced by the on-board processors, which
// raise an access-violation interrupt on any descriptor naming an
// unauthorized page. Host interrupts are still fielded by the kernel's
// handler, which directly signals a thread in the application's channel
// driver.
//
// The channel driver linked with the application is, as in the paper,
// "essentially the same" code as the in-kernel driver: another
// driver.Driver instance running over the ADC's channel with the
// application's address space and authorized frames. The replicated
// application-linked protocol stack is an ordinary proto.IP/UDP pair
// constructed over that driver.
//
// The adaptor exposes only dpm.PagesPerHalf queue-page pairs, so the
// dedicated-channel model tops out at 15 ADCs per board. Virtual ADCs
// (Config.Virtual) lift that limit: many ADCs share one "mux" channel's
// queue pages and receive-buffer pool, with each tenant's transmit
// authorization scoped to its own VCIs (per-ADC descriptor tagging) so
// the board can still attribute every illegal descriptor to the virtual
// ADC that issued it.
package adc

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/board"
	"repro/internal/driver"
	"repro/internal/hostsim"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// AppDomain is an application protection domain.
type AppDomain struct {
	Name  string
	Space *mem.AddressSpace
}

// NewAppDomain creates an application domain on h.
func NewAppDomain(h *hostsim.Host, name string) *AppDomain {
	return &AppDomain{Name: name, Space: h.Mem.NewSpace(name)}
}

// Config sizes an ADC at open time.
type Config struct {
	// BufBytes / BufCount size the channel's receive buffers (defaults
	// 16 KB × 16). For a virtual ADC they size the shared pool carved
	// when its mux channel first opens.
	BufBytes int
	BufCount int
	// ExtraPages grants additional authorized pages for the
	// application's transmit buffers (default 32).
	ExtraPages int
	// Priority orders this ADC's transmissions against others (§3.2).
	// A mux channel takes the priority of its first tenant.
	Priority int
	// SlowWiring passes through to the channel driver.
	SlowWiring bool
	// Cache passes through to the channel driver.
	Cache driver.CachePolicy
	// Virtual multiplexes this ADC onto a shared mux channel instead of
	// claiming a dedicated queue-page pair, scaling past the adaptor's
	// fixed channel count. The tenant keeps private transmit pages
	// (granted per VCI) but draws receive buffers from the mux
	// channel's shared kernel-owned pool and drives I/O through the
	// shared kernel-resident driver.
	Virtual bool
}

// ADC is one open application device channel.
type ADC struct {
	mgr      *Manager
	app      *AppDomain
	Index    int
	VCIs     []atm.VCI
	drv      *driver.Driver
	txFrames [][]mem.Frame // authorized transmit buffer runs handed to the app
	txVAs    []mem.VirtAddr
	txMapped []bool
	virtual  bool
	mux      *muxChannel
	vios     int64 // tx violations attributed to this ADC's VCIs
	closed   bool
}

// Driver returns the application's channel driver. For a dedicated ADC
// everything it does — queueing descriptors, reaping completions,
// draining the receive ring — happens without kernel involvement. For a
// virtual ADC it is the mux channel's shared driver.
func (a *ADC) Driver() *driver.Driver { return a.drv }

// Virtual reports whether this ADC is multiplexed onto a shared
// channel.
func (a *ADC) Virtual() bool { return a.virtual }

// Violations reports how many authorization violations the board has
// attributed to this ADC's VCIs (per-descriptor tagging on a mux
// channel).
func (a *ADC) Violations() int64 { return a.vios }

// TxBuffer returns the i-th authorized transmit buffer as a virtual
// address in the application's space, mapping it on first use (the
// mapping is cached, so repeated calls return the same address).
func (a *ADC) TxBuffer(i int) (mem.VirtAddr, int, error) {
	if i < 0 || i >= len(a.txFrames) {
		return 0, 0, fmt.Errorf("adc: tx buffer %d out of range", i)
	}
	run := a.txFrames[i]
	if !a.txMapped[i] {
		va, err := a.app.Space.MapFrames(run)
		if err != nil {
			return 0, 0, err
		}
		a.txVAs[i] = va
		a.txMapped[i] = true
	}
	return a.txVAs[i], len(run) * a.mgr.host.Mem.PageSize(), nil
}

// muxChannel is one shared board channel carrying many virtual ADCs:
// one queue-page pair, one kernel-owned receive pool, one shared
// driver, per-tenant VCI bindings and transmit grants on top.
type muxChannel struct {
	idx     int
	drv     *driver.Driver
	tenants int
}

// Manager is the kernel-side ADC service for one board.
type Manager struct {
	host  *hostsim.Host
	b     *board.Board
	inUse [board.NumChannels]bool

	// OnViolation is invoked (in interrupt context) when the board
	// reports an authorization violation on a channel — the kernel
	// raising "an access violation exception in the offending
	// application process".
	OnViolation func(channel int)

	violations map[int]int64

	// Virtual multiplexing state.
	muxes    []*muxChannel
	byVCI    map[atm.VCI]*ADC // tx-violation attribution for virtual ADCs
	vciVios  int64            // violations attributed to a virtual ADC
	virtOpen int64            // currently open virtual ADCs
}

// NewManager returns the ADC service for board b. Channel 0 stays with
// the kernel.
func NewManager(h *hostsim.Host, b *board.Board) *Manager {
	m := &Manager{host: h, b: b, violations: make(map[int]int64), byVCI: make(map[atm.VCI]*ADC)}
	m.inUse[0] = true
	for i := 1; i < board.NumChannels; i++ {
		idx := i
		h.Int.Handle(board.VioIRQBase+idx, 0, func() {
			m.violations[idx]++
			if m.OnViolation != nil {
				m.OnViolation(idx)
			}
		})
	}
	// Per-descriptor attribution: on a mux channel the offending
	// descriptor's VCI tag names the virtual ADC, which the per-channel
	// interrupt alone cannot.
	b.SetViolationHook(func(ch int, vci atm.VCI) {
		if a := m.byVCI[vci]; a != nil {
			a.vios++
			m.vciVios++
		}
	})
	return m
}

// Violations reports how many authorization violations channel i has
// raised.
func (m *Manager) Violations(i int) int64 { return m.violations[i] }

// Reserve marks channel i as in use so the manager will never hand it
// to a future Open or mux channel. The caller owns the channel — e.g. a
// raw board-level consumer sharing the adaptor with the ADC service.
func (m *Manager) Reserve(i int) error {
	if i <= 0 || i >= board.NumChannels {
		return fmt.Errorf("adc: cannot reserve channel %d", i)
	}
	if m.inUse[i] {
		return fmt.Errorf("adc: channel %d already in use", i)
	}
	m.inUse[i] = true
	return nil
}

// MuxChannels reports how many shared mux channels are open.
func (m *Manager) MuxChannels() int { return len(m.muxes) }

// VirtualOpen reports how many virtual ADCs are currently open.
func (m *Manager) VirtualOpen() int64 { return m.virtOpen }

// RegisterMetrics registers the manager's counters under prefix: total
// and per-virtual-ADC-attributed violations plus the mux occupancy
// gauges. Gated by the caller (core.Options.ADCMetrics) the same way
// AdaptiveMetrics gates the RDP family, so legacy snapshots keep their
// name set. A nil registry is a no-op.
func (m *Manager) RegisterMetrics(r *metrics.Registry, prefix string) {
	if r == nil {
		return
	}
	r.Sample(prefix+"/violations", metrics.KindCounter, func() int64 {
		var total int64
		for _, v := range m.violations {
			total += v
		}
		return total
	})
	r.Sample(prefix+"/vci_violations", metrics.KindCounter, func() int64 { return m.vciVios })
	r.Sample(prefix+"/mux_channels", metrics.KindGauge, func() int64 { return int64(len(m.muxes)) })
	r.Sample(prefix+"/virtual_adcs", metrics.KindGauge, func() int64 { return m.virtOpen })
}

// Open establishes an ADC for app: it claims a queue-page pair, carves
// and authorizes the channel's physical pages, binds the VCIs, and
// starts the application-linked channel driver. This is the only part
// of the ADC lifecycle in which the kernel participates (§3.2); the
// setup cost (page mappings, wiring) is charged to p. With cfg.Virtual
// the ADC instead joins (or opens) a shared mux channel.
func (m *Manager) Open(p *sim.Proc, app *AppDomain, vcis []atm.VCI, cfg Config) (*ADC, error) {
	if cfg.BufBytes == 0 {
		cfg.BufBytes = 16 * 1024
	}
	if cfg.BufCount == 0 {
		cfg.BufCount = 16
	}
	if cfg.ExtraPages == 0 {
		cfg.ExtraPages = 32
	}
	if cfg.Virtual {
		return m.openVirtual(p, app, vcis, cfg)
	}
	idx := m.claimChannel()
	if idx < 0 {
		return nil, fmt.Errorf("adc: no free channels")
	}
	bufRuns, allowed, err := m.allocRuns(nil, nil, cfg.BufCount, m.pagesPerBuf(cfg))
	var txRuns [][]mem.Frame
	if err == nil {
		txRuns, allowed, err = m.allocRuns(nil, allowed, (cfg.ExtraPages+3)/4, 4)
	}
	if err != nil {
		// The claimed slot and every run carved so far go back: nothing
		// is wired yet, so FreeFrame is legal.
		m.inUse[idx] = false
		m.freeRuns(bufRuns)
		m.freeRuns(txRuns)
		return nil, err
	}

	// Kernel work: open the channel on the board, authorize the pages,
	// map the two queue pages into the application (modelled as two page
	// mappings plus the board programming writes).
	m.b.OpenChannel(idx, cfg.Priority, allowed)
	for _, v := range vcis {
		m.b.BindVCI(v, idx)
	}
	m.host.Compute(p, 2*m.host.Prof.FbufMapPerPage) // queue-page mappings
	m.host.WirePages(p, len(allowed), cfg.SlowWiring)
	return &ADC{
		mgr:      m,
		app:      app,
		Index:    idx,
		VCIs:     append([]atm.VCI(nil), vcis...),
		drv:      m.newDriver(p, idx, app.Space, bufRuns, cfg),
		txFrames: txRuns,
		txVAs:    make([]mem.VirtAddr, len(txRuns)),
		txMapped: make([]bool, len(txRuns)),
	}, nil
}

// openVirtual places the ADC on a shared mux channel. The tenant gets
// private transmit pages, granted per VCI so the on-board processors
// can attribute every descriptor; queue pages, receive pool, and driver
// are the mux channel's.
func (m *Manager) openVirtual(p *sim.Proc, app *AppDomain, vcis []atm.VCI, cfg Config) (*ADC, error) {
	for _, v := range vcis {
		if m.byVCI[v] != nil {
			return nil, fmt.Errorf("adc: vci %d already claimed by a virtual ADC", v)
		}
	}
	mux, err := m.muxFor(p, cfg)
	if err != nil {
		return nil, err
	}
	txRuns, txFrames, err := m.allocRuns(nil, nil, (cfg.ExtraPages+3)/4, 4)
	if err != nil {
		m.freeRuns(txRuns)
		return nil, err
	}
	for _, v := range vcis {
		m.b.BindVCI(v, mux.idx)
		m.b.RestrictVCIFrames(mux.idx, v, txFrames)
	}
	// Kernel work: map the shared queue pages into the application and
	// wire the tenant's transmit pages.
	m.host.Compute(p, 2*m.host.Prof.FbufMapPerPage)
	m.host.WirePages(p, len(txFrames), cfg.SlowWiring)

	mux.tenants++
	m.virtOpen++
	a := &ADC{
		mgr:      m,
		app:      app,
		Index:    mux.idx,
		VCIs:     append([]atm.VCI(nil), vcis...),
		drv:      mux.drv,
		txFrames: txRuns,
		txVAs:    make([]mem.VirtAddr, len(txRuns)),
		txMapped: make([]bool, len(txRuns)),
		virtual:  true,
		mux:      mux,
	}
	for _, v := range vcis {
		m.byVCI[v] = a
	}
	return a, nil
}

// muxFor selects the mux channel for a new virtual ADC: a fresh board
// channel while queue-page pairs remain free (spreading tenants over
// the adaptor's real channels), then the least-loaded existing mux.
func (m *Manager) muxFor(p *sim.Proc, cfg Config) (*muxChannel, error) {
	idx := m.claimChannel()
	if idx < 0 {
		var best *muxChannel
		for _, mx := range m.muxes {
			if best == nil || mx.tenants < best.tenants {
				best = mx
			}
		}
		if best == nil {
			return nil, fmt.Errorf("adc: no free channels for a mux")
		}
		return best, nil
	}
	// Shared receive pool, owned by the kernel-resident mux driver.
	bufRuns, allowed, err := m.allocRuns(nil, nil, cfg.BufCount, m.pagesPerBuf(cfg))
	if err != nil {
		m.inUse[idx] = false
		m.freeRuns(bufRuns)
		return nil, err
	}
	m.b.OpenChannel(idx, cfg.Priority, allowed)
	m.host.Compute(p, 2*m.host.Prof.FbufMapPerPage)
	m.host.WirePages(p, len(allowed), cfg.SlowWiring)
	mx := &muxChannel{idx: idx, drv: m.newDriver(p, idx, nil, bufRuns, cfg)}
	m.muxes = append(m.muxes, mx)
	return mx, nil
}

// claimChannel claims the lowest free board channel above the kernel's,
// or returns -1 if there is none.
func (m *Manager) claimChannel() int {
	for i := 1; i < board.NumChannels; i++ {
		if !m.inUse[i] {
			m.inUse[i] = true
			return i
		}
	}
	return -1
}

// pagesPerBuf is the pages one receive buffer of cfg spans.
func (m *Manager) pagesPerBuf(cfg Config) int {
	return (cfg.BufBytes + m.host.Mem.PageSize() - 1) / m.host.Mem.PageSize()
}

// allocRuns appends n runs of pages contiguous frames each to runs, and
// their frames to frames, stopping at the first failure.
func (m *Manager) allocRuns(runs [][]mem.Frame, frames []mem.Frame, n, pages int) ([][]mem.Frame, []mem.Frame, error) {
	for ; n > 0; n-- {
		run, err := m.host.Mem.AllocContiguous(pages)
		if err != nil {
			return runs, frames, err
		}
		runs, frames = append(runs, run), append(frames, run...)
	}
	return runs, frames, nil
}

// newDriver builds channel idx's driver over the receive buffer runs,
// mapped in space (nil: the kernel's).
func (m *Manager) newDriver(p *sim.Proc, idx int, space *mem.AddressSpace, bufRuns [][]mem.Frame, cfg Config) *driver.Driver {
	return driver.New(p.Engine(), m.host, m.b, driver.Config{
		ChannelIndex: idx,
		Space:        space,
		BufferFrames: bufRuns,
		ReserveBufs:  max(cfg.BufCount/4, 1),
		Cache:        cfg.Cache,
		SlowWiring:   cfg.SlowWiring,
	})
}

func (m *Manager) freeRuns(runs [][]mem.Frame) {
	for _, run := range runs {
		for _, f := range run {
			m.host.Mem.FreeFrame(f)
		}
	}
}

// Close tears the channel down: unbinds its VCIs and returns the queue
// pages to the pool. A dedicated ADC's physical buffer pages stay with
// the application domain (a full VM reclaim is outside the ADC's
// scope); a virtual ADC's transmit pages ARE reclaimed — grants
// revoked, mappings removed, frames freed — because mux channels live
// through arbitrary open/close churn and would otherwise leak them.
func (m *Manager) Close(a *ADC) {
	if a.closed {
		return
	}
	a.closed = true
	if !a.virtual {
		for _, v := range a.VCIs {
			m.b.UnbindVCI(v)
		}
		m.inUse[a.Index] = false
		return
	}
	for _, v := range a.VCIs {
		m.b.UnbindVCI(v)
		m.b.RevokeVCIFrames(a.Index, v)
		delete(m.byVCI, v)
	}
	for i, run := range a.txFrames {
		if a.txMapped[i] {
			vpn := a.app.Space.VPN(a.txVAs[i])
			for j := range run {
				a.app.Space.Unmap(vpn + uint32(j))
			}
			a.txMapped[i] = false
		}
		for _, f := range run {
			m.host.Mem.FreeFrame(f)
		}
	}
	a.txFrames = nil
	a.mux.tenants--
	m.virtOpen--
}
