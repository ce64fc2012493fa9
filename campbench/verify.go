package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"time"

	"diverseav/internal/lab"
)

// reference.json maps "<workload>/<size>/<variant>" to the digests of
// every injection run of that instance, in campaign and run order, as
// recorded on the seed commit; study entries end with the digest of the
// report text. Regenerate it with -record (see README.md).
//
//go:embed reference.json
var referenceJSON []byte

type references map[string][]string

func refKey(workload, size string, variant int) string {
	return fmt.Sprintf("%s/%s/%d", workload, size, variant)
}

func loadReferences() (references, error) {
	var refs references
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// runDigest hashes one injection run from the campaign's public fields:
// its plan or surface description, outcome (which carries the DUE kind),
// activation count and full trace. Artifact wire bytes are deliberately
// not hashed, so a change of storage format is not a wrong answer.
func runDigest(r lab.RunRecord) string {
	h := fnv.New64a()
	tr := r.Result.Trace
	fmt.Fprintf(h, "%s|%s|%d|%d|%d|%s|%d|%v|%v|", r.Label(), tr.Outcome, tr.EndStep, tr.CollisionStep,
		r.Result.Activations, tr.Scenario, tr.Seed, tr.InstrCPU, tr.InstrGPU)
	var buf [8 * 24]byte
	for _, s := range tr.Steps {
		vals := [...]float64{s.T, s.X, s.Y, s.Z, s.V, s.A, s.Omega, s.AlphaDot, s.Throttle, s.Brake, s.Steer, float64(s.AgentID), s.CVIP,
			s.Cmd[0].Throttle, s.Cmd[0].Brake, s.Cmd[0].Steer, s.Cmd[0].ObstacleDist, b2f(s.Cmd[0].Valid),
			s.Cmd[1].Throttle, s.Cmd[1].Brake, s.Cmd[1].Steer, s.Cmd[1].ObstacleDist, b2f(s.Cmd[1].Valid)}
		for i, v := range vals {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		h.Write(buf[:8*len(vals)])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func textDigest(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// digests lists the outcome's run digests in campaign and run order,
// followed by the report digest for the study.
func (o *outcome) digests() []string {
	var ds []string
	for _, c := range o.campaigns {
		for _, r := range c.Runs {
			ds = append(ds, runDigest(r))
		}
	}
	if o.report != "" {
		ds = append(ds, textDigest(o.report))
	}
	return ds
}

// check compares the outcome with its reference and returns the number
// of injection runs attempted and failed. A run fails when its digest
// differs from the reference; a wrong report text fails every run, and
// so does a missing reference or a run count that does not match it.
func check(o *outcome, ref []string) (attempted, failed int) {
	attempted = o.runs()
	got := o.digests()
	if len(ref) == 0 || len(got) != len(ref) {
		return attempted, attempted
	}
	if o.report != "" && got[len(got)-1] != ref[len(ref)-1] {
		return attempted, attempted
	}
	for i := 0; i < attempted; i++ {
		if got[i] != ref[i] {
			failed++
		}
	}
	return attempted, failed
}

// expectedRuns is the run count a reference promises, used as the
// attempted count of an iteration that died before producing output.
func expectedRuns(workload string, ref []string) int {
	n := len(ref)
	if workload == "study" && n > 0 {
		n-- // the report digest
	}
	if n < 1 {
		n = 1
	}
	return n
}

// record runs the seed's variant of a workload at one size in this
// process and merges its digests into the reference file at path.
func record(path string, w workload, sizeName string, seed uint64) error {
	refs := references{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &refs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	in := newInput(w, w.sizes[sizeName], seed)
	start := time.Now()
	out, err := in.execute(in.newLab(), nil)
	if err != nil {
		return fmt.Errorf("%s: %w", in, err)
	}
	refs[refKey(w.name, sizeName, in.variant)] = out.digests()
	fmt.Fprintf(os.Stderr, "campbench: recorded %s: %d runs in %.2f s\n", in, out.runs(), time.Since(start).Seconds())
	keys := make([]string, 0, len(refs))
	for k := range refs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// One entry per line keeps the file diffable.
	buf := []byte("{\n")
	for i, k := range keys {
		line, err := json.Marshal(refs[k])
		if err != nil {
			return err
		}
		buf = fmt.Appendf(buf, "%q: %s", k, line)
		if i < len(keys)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
	}
	buf = append(buf, "}\n"...)
	return os.WriteFile(path, buf, 0o644)
}
