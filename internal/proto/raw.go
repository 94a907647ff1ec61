package proto

import (
	"repro/internal/atm"
	"repro/internal/driver"
	"repro/internal/hostsim"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/xkernel"
)

// Raw is the "ATM" test protocol of Table 1: sessions configured
// directly on top of the OSIRIS device driver, with no headers and no
// protocol processing beyond the driver itself.
type Raw struct {
	host *hostsim.Host
	drv  *driver.Driver
}

// NewRaw returns the raw protocol over drv.
func NewRaw(h *hostsim.Host, drv *driver.Driver) *Raw {
	return &Raw{host: h, drv: drv}
}

// RawOpen addresses a raw session: just the VCI.
type RawOpen struct {
	VCI atm.VCI
}

// Open opens a raw session on a.VCI.
func (r *Raw) Open(a RawOpen) (xkernel.Session, error) {
	s := &rawSession{r: r}
	s.path = r.drv.OpenPath(a.VCI, func(p *sim.Proc, m *msg.Message) {
		if s.upper != nil {
			s.upper(p, m)
		}
	})
	return s, nil
}

type rawSession struct {
	r     *Raw
	path  *driver.Path
	upper xkernel.Handler
}

func (s *rawSession) Push(p *sim.Proc, m *msg.Message) error {
	return s.r.drv.Send(p, s.path, m, nil)
}

func (s *rawSession) SetHandler(h xkernel.Handler) { s.upper = h }

func (s *rawSession) Close() { s.r.drv.ClosePath(s.path) }

var _ xkernel.Session = (*rawSession)(nil)
