// Package xkernel provides the x-kernel style session abstraction the
// paper's host software is built on (§1): each protocol's typed Open
// returns a session that pushes messages down and delivers messages up,
// and a path — the session chain serving one application-level
// connection — is what the OSIRIS driver binds to a VCI (§3.1).
//
// The interface is deliberately protocol-independent: it composes the
// UDP/IP-like stack of package proto, the raw ATM test protocol, and
// RDP alike.
package xkernel

import (
	"repro/internal/msg"
	"repro/internal/sim"
)

// Handler delivers an inbound message up to the next layer.
type Handler func(p *sim.Proc, m *msg.Message)

// Session is one end of a channel at some protocol layer.
type Session interface {
	// Push sends a message down through this session.
	Push(p *sim.Proc, m *msg.Message) error
	// SetHandler installs the upward delivery function.
	SetHandler(h Handler)
	// Close tears the session down.
	Close()
}
