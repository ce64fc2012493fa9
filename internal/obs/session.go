package obs

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// Session is one driver's telemetry hookup: an enabled registry, an
// optional JSONL ledger, and an optional debug server. A nil *Session
// is valid everywhere (telemetry off).
type Session struct {
	Ledger *Ledger
	addr   string
	start  time.Time
}

// StartTelemetry wires telemetry for a driver. With both paths empty it
// returns (nil, nil) and the process stays on the disabled fast path.
// Otherwise it enables the default registry, opens the JSONL ledger at
// ledgerPath (if nonempty) and writes the meta record, and serves
// expvar + pprof on debugAddr (if nonempty).
func StartTelemetry(tool, ledgerPath, debugAddr string) (*Session, error) {
	if ledgerPath == "" && debugAddr == "" {
		return nil, nil
	}
	Enable()
	s := &Session{start: time.Now()}
	if ledgerPath != "" {
		l, err := OpenLedger(ledgerPath)
		if err != nil {
			return nil, fmt.Errorf("telemetry: %w", err)
		}
		l.EmitMeta(NewMeta(tool))
		s.Ledger = l
	}
	if debugAddr != "" {
		addr, err := ServeDebug(debugAddr)
		if err != nil {
			s.Ledger.Close()
			return nil, fmt.Errorf("debug server: %w", err)
		}
		s.addr = addr
	}
	return s, nil
}

// DebugAddr returns the bound debug-server address ("" if none).
func (s *Session) DebugAddr() string {
	if s == nil {
		return ""
	}
	return s.addr
}

// Close finalizes the session: snapshots the registry into the ledger,
// flushes and closes it, and writes the flight-recorder summary to w
// (skip with nil). Safe on a nil session.
func (s *Session) Close(w io.Writer) error {
	if s == nil {
		return nil
	}
	snap := Default().Snapshot()
	s.Ledger.EmitMetrics(snap)
	err := s.Ledger.Close()
	if w != nil {
		WriteSummary(w, snap, time.Since(s.start))
	}
	return err
}

var publishOnce sync.Once

// ServeDebug starts an HTTP server on addr exposing net/http/pprof
// under /debug/pprof/ and the obs registry (plus expvar defaults)
// under /debug/vars. It returns the bound address, so addr may use
// port 0. The server uses its own mux — nothing leaks into
// http.DefaultServeMux — and runs until the process exits.
func ServeDebug(addr string) (string, error) {
	publishOnce.Do(func() {
		expvar.Publish("obs", expvar.Func(func() any { return Default().Snapshot() }))
	})
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go http.Serve(ln, mux)
	return ln.Addr().String(), nil
}

// WriteSummary prints the human-readable flight-recorder digest: the
// headline rates the campaigns care about (tier-1 kernel hit rate,
// batch/fork/cold split, lane-group sizes, splice counts, checkpoint pool
// reuse, lab store hits) followed by every metric in the snapshot,
// sorted.
func WriteSummary(w io.Writer, snap map[string]int64, wall time.Duration) {
	fmt.Fprintf(w, "--- flight recorder (%.1fs wall) ---\n", wall.Seconds())
	if runs := snap["sim.runs"]; runs > 0 {
		fmt.Fprintf(w, "sim: %d runs, %d steps", runs, snap["sim.steps"])
		if secs := wall.Seconds(); secs > 0 {
			fmt.Fprintf(w, " (%.0f steps/s)", float64(snap["sim.steps"])/secs)
		}
		fmt.Fprintf(w, "; %d collisions, %d DUEs\n", snap["sim.collisions"], snap["sim.dues"])
	}
	fused, scalar, hooked := snap["vm.instr_fused"], snap["vm.instr_scalar"], snap["vm.instr_hooked"]
	if total := fused + scalar + hooked; total > 0 {
		fmt.Fprintf(w, "vm: %d instructions — %.1f%% tier-1 fused, %.1f%% tier-0 scalar, %.1f%% hooked\n",
			total, 100*float64(fused)/float64(total),
			100*float64(scalar)/float64(total), 100*float64(hooked)/float64(total))
	}
	batchedRuns, forked, cold := snap["campaign.runs_batched"], snap["campaign.runs_forked"], snap["campaign.runs_cold"]
	if batchedRuns+forked+cold > 0 {
		fmt.Fprintf(w, "campaign: %d batched runs, %d forked runs, %d cold runs\n", batchedRuns, forked, cold)
	}
	if groups := snap["sim.lane_groups"]; groups > 0 {
		lanes, clones := snap["sim.lane_runs"], snap["sim.lane_clones"]
		fmt.Fprintf(w, "lanes: %d groups, %d lanes (%.1f avg), %d golden clones",
			groups, lanes, float64(lanes)/float64(groups), clones)
		fmt.Fprintf(w, "; pack replay %d steps (%d checkpoint jumps)\n",
			snap["sim.pack_steps"], snap["sim.pack_restores"])
	}
	if spliced := snap["sim.runs_spliced"]; spliced > 0 {
		fmt.Fprintf(w, "divergence: %d runs spliced (%d golden steps grafted)",
			spliced, snap["sim.steps_spliced"])
		if rej := snap["sim.splice_rejects"]; rej > 0 {
			fmt.Fprintf(w, ", %d digest collisions rejected", rej)
		}
		fmt.Fprintln(w)
	}
	if taken := snap["sim.checkpoints"]; taken > 0 {
		fmt.Fprintf(w, "checkpoints: %d taken, %d buffers reused from pool\n",
			taken, snap["sim.checkpoint_reuse"])
	}
	if jobs := snap["lab.computed"] + snap["lab.mem_hits"] + snap["lab.disk_hits"]; jobs > 0 {
		fmt.Fprintf(w, "lab: %d jobs — %d computed, %d memory hits, %d disk hits",
			jobs, snap["lab.computed"], snap["lab.mem_hits"], snap["lab.disk_hits"])
		if c := snap["lab.disk_corrupt"]; c > 0 {
			fmt.Fprintf(w, ", %d corrupt entries recomputed", c)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "metrics:")
	for _, k := range sortedKeys(snap) {
		fmt.Fprintf(w, "  %-32s %d\n", k, snap[k])
	}
}

// GitSHA returns the repository's short commit hash, or "" when git or
// a repo is unavailable (the binary may run from anywhere).
func GitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// Progress writes rate-limited single-line progress (done/total + ETA)
// to a terminal stream, redrawing in place with \r. A nil *Progress is
// a valid no-op, so callers can wire it unconditionally.
type Progress struct {
	mu      sync.Mutex
	w       io.Writer
	label   string
	start   time.Time
	last    time.Time
	extra   string
	written bool
}

// NewProgress returns a progress reporter labeled label (e.g. "lab").
func NewProgress(w io.Writer, label string) *Progress {
	return &Progress{w: w, label: label, start: time.Now()}
}

// SetExtra appends a short free-form suffix to the progress line.
func (p *Progress) SetExtra(s string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.extra = s
	p.mu.Unlock()
}

// Update reports done of total complete. Redraws at most ~10x/second
// (the final done==total update always draws).
func (p *Progress) Update(done, total int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	if done < total && now.Sub(p.last) < 100*time.Millisecond {
		return
	}
	p.last = now
	line := fmt.Sprintf("%s: %d/%d", p.label, done, total)
	if done > 0 && done < total {
		elapsed := now.Sub(p.start)
		eta := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
		line += fmt.Sprintf(" (ETA %s)", eta.Round(time.Second))
	}
	if p.extra != "" {
		line += " " + p.extra
	}
	fmt.Fprintf(p.w, "\r\x1b[K%s", line)
	p.written = true
}

// Done terminates the progress line with a newline (if anything was
// drawn). Safe on nil.
func (p *Progress) Done() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.written {
		fmt.Fprintln(p.w)
		p.written = false
	}
}

// StderrIsTerminal reports whether stderr is likely a terminal — used by drivers
// to decide whether live progress lines are welcome by default.
func StderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}
