// reliable-lossy: the §2.3 premise in action — "the underlying network
// is not reliable, and therefore mechanisms for detecting or tolerating
// transmission errors are already in place". Cells are dropped in the
// network; the board's AAL5 framing checks discard damaged PDUs, UDP
// loses those messages outright, and the RDP transport (the same
// x-kernel graph, a different protocol — §1's protocol independence)
// retransmits until everything arrives.
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/fault"
	"repro/internal/hostsim"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xkernel"
)

const (
	messages = 15
	msgBytes = 3000
	lossRate = 0.01 // 1% of cells vanish, in each direction
)

func transfer(protoName string) (delivered, intact int, retx int64, took time.Duration) {
	tb := core.NewTestbed(core.Options{
		Profile: hostsim.DEC3000_600(),
		Driver:  driver.Config{Cache: driver.CacheNone},
		Link:    atm.LinkConfig{Fault: &fault.Config{Loss: fault.Bernoulli{P: lossRate}}},
		Seed:    7,
	})
	defer tb.Shutdown()

	var tx, rx xkernel.Session
	var err error
	switch protoName {
	case "udp":
		tx, err = tb.A.UDP.Open(proto.UDPOpen{Remote: 2, VCI: 60, SrcPort: 1, DstPort: 2, Checksum: true})
		if err == nil {
			rx, err = tb.B.UDP.Open(proto.UDPOpen{Remote: 1, VCI: 60, SrcPort: 2, DstPort: 1, Checksum: true})
		}
	case "rdp":
		tx, err = tb.A.RDP.Open(proto.RDPOpen{Remote: 2, VCI: 60, Window: 4})
		if err == nil {
			rx, err = tb.B.RDP.Open(proto.RDPOpen{Remote: 1, VCI: 60, Window: 4})
		}
	}
	if err != nil {
		log.Fatal(err)
	}

	expected := make([][]byte, messages)
	for i := range expected {
		expected[i] = workload.Payload(msgBytes, byte(i))
	}
	rx.SetHandler(func(p *sim.Proc, m *msg.Message) {
		b, _ := m.Bytes()
		delivered++
		for _, want := range expected {
			if bytes.Equal(b, want) {
				intact++
				return
			}
		}
	})
	var start, end sim.Time
	tb.Eng.Go("sender", func(p *sim.Proc) {
		start = p.Now()
		for i := 0; i < messages; i++ {
			m, err := msg.FromBytes(tb.A.Host.Kernel, workload.Payload(msgBytes, byte(i)))
			if err != nil {
				log.Fatal(err)
			}
			if err := tx.Push(p, m); err != nil {
				log.Fatal(err)
			}
			if protoName == "udp" {
				tb.A.Drv.Flush(p)
			}
		}
		if w, ok := tx.(proto.WaitAckedSession); ok {
			w.WaitAcked(p)
		}
		end = p.Now()
	})
	tb.Eng.RunUntil(tb.Eng.Now().Add(2 * time.Second))
	return delivered, intact, tb.A.RDP.Stats().Retransmits, time.Duration(end - start)
}

func main() {
	fmt.Printf("%d × %d-byte messages across links losing %.1f%% of cells:\n\n",
		messages, msgBytes, lossRate*100)

	d, i, _, took := transfer("udp")
	fmt.Printf("UDP/IP (checksum on):\n")
	fmt.Printf("  delivered %d/%d (%d intact) in %v — losses are silent\n\n", d, messages, i, took)

	d, i, retx, took := transfer("rdp")
	fmt.Printf("RDP (go-back-N over the same IP, same driver, same VCI machinery):\n")
	fmt.Printf("  delivered %d/%d (%d intact) in %v with %d retransmissions\n", d, messages, i, took, retx)
	fmt.Printf("\nThe x-kernel graph is protocol-independent (§1): swapping the\n")
	fmt.Printf("transport changed reliability semantics without touching the\n")
	fmt.Printf("driver, the board firmware, or the VCI path binding.\n")
}
