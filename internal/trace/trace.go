// Package trace records typed simulation events (sim.TraceEvent) for
// debugging and for understanding where time goes — the
// software-visibility tool the paper's authors effectively had by
// instrumenting the i960 firmware.
//
// Components emit through the engine's recorder hook (sim.Engine.Emit);
// a Timeline collects the records and renders them as text (WriteText)
// or as a Perfetto-loadable timeline (WriteChrome). With no recorder
// installed every emission site is one branch and zero allocations.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteText writes the timeline's canonical merge, one event per line:
// simulated microseconds, [category], component track, event name and
// argument, plus the duration of 'X' spans. cats restricts the output
// to the named categories (empty means all); limit > 0 keeps only the
// last limit matching events.
func (tl *Timeline) WriteText(w io.Writer, cats []string, limit int) error {
	allow := make(map[string]bool, len(cats))
	for _, c := range cats {
		allow[strings.TrimSpace(c)] = true
	}
	var lines []laneEvent
	for _, le := range tl.merged() {
		if len(allow) == 0 || allow[le.ev.Cat] {
			lines = append(lines, le)
		}
	}
	if limit > 0 && len(lines) > limit {
		lines = lines[len(lines)-limit:]
	}
	bw := bufio.NewWriter(w)
	for _, le := range lines {
		ev := le.ev
		fmt.Fprintf(bw, "%12.3fµs [%-5s] %s %s %d", ev.At.Microseconds(), ev.Cat, ev.Comp, ev.Name, ev.Arg)
		if ev.Ph == 'X' {
			fmt.Fprintf(bw, " dur=%.3fµs", ev.Dur.Microseconds())
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
