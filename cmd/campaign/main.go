// Command campaign runs one fault-injection campaign (target × model ×
// scenario) in DiverseAV mode and prints its Table I row plus per-run
// outcomes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"diverseav/internal/fi"
	"diverseav/internal/lab"
	"diverseav/internal/obs"
	"diverseav/internal/report"
	"diverseav/internal/scenario"
	"diverseav/internal/sim"
	"diverseav/internal/vm"
)

func main() {
	var (
		scen      = flag.String("scenario", "LeadSlowdown", "scenario name")
		target    = flag.String("target", "GPU", "fault target: CPU or GPU")
		model     = flag.String("model", "permanent", "fault model: transient or permanent")
		surface   = flag.String("surface", "", "fault surface: "+strings.Join(fi.SurfaceNames(), ",")+" (empty = instruction surface, the default)")
		full      = flag.Bool("full", false, "paper-scale campaign (500 transient / 3 reps / 50 golden)")
		seed      = flag.Uint64("seed", 7, "campaign seed")
		td        = flag.Float64("td", 2, "trajectory-violation threshold, meters")
		cache     = flag.String("cache", "", "artifact cache directory shared with cmd/experiments")
		verbose   = flag.Bool("v", false, "print per-run outcomes")
		telemetry = flag.String("telemetry", "", "write a JSONL run ledger (job spans + end-of-run metrics) to this file")
		debugAddr = flag.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if err := report.ValidateNames("surface", []string{*surface}, fi.SurfaceNames()); err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(2)
	}

	sess, err := obs.StartTelemetry("campaign", *telemetry, *debugAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
	if addr := sess.DebugAddr(); addr != "" {
		fmt.Fprintf(os.Stderr, "campaign: debug server on http://%s/debug/vars\n", addr)
	}

	if scenario.ByName(*scen) == nil {
		fmt.Fprintf(os.Stderr, "campaign: unknown scenario %q\n", *scen)
		os.Exit(2)
	}
	dev := vm.GPU
	if strings.EqualFold(*target, "CPU") {
		dev = vm.CPU
	}
	mdl := fi.Permanent
	if strings.EqualFold(*model, "transient") {
		mdl = fi.Transient
	}
	sizes := lab.DefaultSizes()
	if *full {
		sizes = lab.FullSizes()
	}

	l := lab.New()
	if *cache != "" {
		if err := l.SetDisk(*cache); err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			os.Exit(1)
		}
	}
	l.SetLog(func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) })
	if sess != nil {
		l.SetLedger(sess.Ledger)
	}
	var pr *obs.Progress
	if obs.StderrIsTerminal() {
		pr = obs.NewProgress(os.Stderr, "campaign")
		l.SetProgress(pr.Update)
	}

	spec := lab.CampaignSpec{
		Scenario: *scen,
		Mode:     sim.RoundRobin,
		Target:   dev,
		Model:    mdl,
		Sizes:    sizes,
		Seed:     *seed,
		Surface:  *surface,
	}
	// Require schedules through the DAG executor, which is what emits the
	// per-job spans; the typed getter then hits the store.
	l.Require(spec)
	pr.Done()
	c := l.Campaign(spec)
	row := c.Table1Row(*td)
	fmt.Printf("%s-%s on %s: total=%d active=%d hang/crash=%d accidents=%d traj-violations=%d (td=%.0fm)\n",
		row.Target, row.Model, row.Scenario, row.Total, row.Active, row.HangCrash,
		row.Accidents, row.TrajViolates, *td)
	if *verbose {
		for _, r := range c.Runs {
			d := sim.MaxTrajectoryDivergence(r.Result.Trace, c.Baseline)
			fmt.Printf("  %-36s act=%-9d outcome=%-10s dpos=%6.2fm\n",
				r.Label(), r.Result.Activations, r.Result.Trace.Outcome, d)
		}
	}
	if err := sess.Close(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}
