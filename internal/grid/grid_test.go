package grid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"diverseav/internal/fi"
	"diverseav/internal/lab"
	"diverseav/internal/obs"
	"diverseav/internal/report"
	"diverseav/internal/scenario"
	"diverseav/internal/sim"
	"diverseav/internal/vm"
)

// shortLeadSlowdown mirrors the lab tests' shortened scenario. Every
// node sharing a store must register the same variant (spec keys
// identify scenarios by name).
func shortLeadSlowdown() *scenario.Scenario {
	sc := *scenario.LeadSlowdown()
	sc.Duration = 5
	return &sc
}

func testCampaign() lab.CampaignSpec {
	return lab.CampaignSpec{
		Scenario: "LeadSlowdown",
		Mode:     sim.RoundRobin,
		Target:   vm.GPU,
		Model:    fi.Transient,
		Sizes:    lab.Sizes{Transient: 3, PermReps: 1, PermStride: 24, Golden: 2, Training: 1},
		Seed:     33,
		Golden:   lab.GoldenSpec{Scenario: "LeadSlowdown", Mode: sim.RoundRobin, N: 2, Seed: 1033},
	}
}

// startCoordinator serves c over a loopback httptest server and returns
// the bare addr workers dial.
func startCoordinator(t testing.TB, c *Coordinator) string {
	t.Helper()
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

func startWorkers(t testing.TB, addr string, n int) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := Work(WorkerConfig{
				Addr:     addr,
				Poll:     5 * time.Millisecond,
				Register: []*scenario.Scenario{shortLeadSlowdown()},
			}); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	return &wg
}

// The tentpole acceptance: a campaign distributed over two workers
// produces artifacts byte-identical to a single-process run, and the
// coordinator-side lab computes nothing itself.
func TestGridByteEquivalence(t *testing.T) {
	store, err := lab.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(store, Config{Lease: 5 * time.Second, Stall: 30 * time.Second})
	addr := startCoordinator(t, c)
	wg := startWorkers(t, addr, 2)

	l := lab.New()
	l.RegisterScenario(shortLeadSlowdown())
	l.SetStore(store)
	l.SetRemote(c)
	camp := testCampaign()
	l.Require(camp)

	c.Close()
	c.Drain(2 * time.Second)
	wg.Wait()

	if st := l.Stats(); st.Computed != 0 {
		t.Errorf("coordinator lab computed %d artifacts itself; the fleet should have produced all of them", st.Computed)
	}

	ref := lab.New()
	ref.RegisterScenario(shortLeadSlowdown())
	ref.Require(camp)

	for _, spec := range []lab.Spec{camp, camp.Golden} {
		got, err := l.EncodeArtifact(spec)
		if err != nil {
			t.Fatalf("grid artifact %s: %v", spec.Key(), err)
		}
		want, err := ref.EncodeArtifact(spec)
		if err != nil {
			t.Fatalf("reference artifact %s: %v", spec.Key(), err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("artifact %s differs between grid and single-process execution", spec.Key())
		}
	}
}

// A worker that leases a job and dies loses it for one lease interval,
// after which the job is requeued and another worker completes the run.
func TestGridRequeueOnWorkerDeath(t *testing.T) {
	store, err := lab.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(store, Config{Lease: 150 * time.Millisecond, MaxAttempts: 5, Stall: 30 * time.Second})
	addr := startCoordinator(t, c)

	golden := lab.GoldenSpec{Scenario: "LeadSlowdown", Mode: sim.RoundRobin, N: 2, Seed: 11}
	runErr := make(chan error, 1)
	go func() { runErr <- c.Run([]lab.Spec{golden}) }()

	// The "dying worker": lease the job over raw HTTP and never finish it.
	leased := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		resp, err := http.Get("http://" + addr + pathJob + "?worker=99")
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		var jm jobMsg
		if code == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&jm); err != nil {
				t.Fatal(err)
			}
		}
		resp.Body.Close()
		if code == http.StatusOK {
			if jm.Key != golden.Key() {
				t.Fatalf("leased %s, want %s", jm.Key, golden.Key())
			}
			leased = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !leased {
		t.Fatal("rogue worker never got the job")
	}

	// A healthy worker joins; the expired lease must flow to it.
	wg := startWorkers(t, addr, 1)
	if err := <-runErr; err != nil {
		t.Fatalf("Run after worker death: %v", err)
	}
	if !store.Has(golden.Key()) {
		t.Error("artifact missing from store after requeued completion")
	}
	c.Close()
	c.Drain(2 * time.Second)
	wg.Wait()
}

// With no workers at all, Run abandons the batch after the stall window
// and the lab falls back to local computation — a degraded run, never a
// hung or failed one.
func TestGridNoWorkersFallsBackLocal(t *testing.T) {
	store, err := lab.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(store, Config{Lease: 100 * time.Millisecond, Stall: 300 * time.Millisecond})
	startCoordinator(t, c)

	l := lab.New()
	l.RegisterScenario(shortLeadSlowdown())
	l.SetStore(store)
	l.SetRemote(c)
	golden := lab.GoldenSpec{Scenario: "LeadSlowdown", Mode: sim.RoundRobin, N: 2, Seed: 11}
	l.Require(golden)

	if got := l.Golden(golden); len(got) != 2 {
		t.Fatalf("fallback produced %d golden runs, want 2", len(got))
	}
	if st := l.Stats(); st.Computed == 0 {
		t.Error("nothing computed locally; who produced the artifact?")
	}
}

// Mixed-version pairs refuse cleanly in both directions with an error
// that names the versions.
func TestGridVersionMismatch(t *testing.T) {
	store, err := lab.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(store, Config{})
	addr := startCoordinator(t, c)

	// Old worker against this coordinator: refused at the door.
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+pathJob, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(headerWire, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stale wire header got %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(body), "wire version 1") || !strings.Contains(string(body), "same build") {
		t.Errorf("version refusal not descriptive: %q", body)
	}

	// This worker against a future coordinator: refused at the handshake.
	future := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, pingMsg{Wire: lab.WireVersion + 1, Worker: 1})
	}))
	defer future.Close()
	err = Work(WorkerConfig{Addr: strings.TrimPrefix(future.URL, "http://"), ConnectTimeout: time.Second})
	if err == nil {
		t.Fatal("worker accepted a future-version coordinator")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("wire version %d", lab.WireVersion+1)) {
		t.Errorf("worker version refusal not descriptive: %v", err)
	}
}

// The HTTP store round-trips bytes with integrity enforcement on both
// directions.
func TestGridArtifactIntegrity(t *testing.T) {
	diskStore, err := lab.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(diskStore, Config{})
	addr := startCoordinator(t, c)
	hs := &httpStore{base: "http://" + addr, client: http.DefaultClient}

	payload := []byte("artifact bytes")
	if err := hs.Put("k1", payload); err != nil {
		t.Fatal(err)
	}
	if !hs.Has("k1") {
		t.Error("Has(k1) false after Put")
	}
	got, err := hs.Get("k1")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get(k1) = %q, %v", got, err)
	}
	if _, err := hs.Get("absent"); err != lab.ErrNotFound {
		t.Errorf("Get(absent) = %v, want ErrNotFound", err)
	}

	// Server side: a PUT whose body does not match its claimed hash (or
	// carries none) is refused before touching the store.
	put := func(key string, body []byte, sum string) int {
		req, err := http.NewRequest(http.MethodPut, "http://"+addr+pathArtifact+key, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if sum != "" {
			req.Header.Set(headerSHA, sum)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := put("k2", payload, artifactSum([]byte("other bytes"))); code != http.StatusBadRequest {
		t.Errorf("tampered PUT got %d, want 400", code)
	}
	if code := put("k2", payload, ""); code != http.StatusBadRequest {
		t.Errorf("hashless PUT got %d, want 400", code)
	}
	if diskStore.Has("k2") {
		t.Error("refused PUT still landed in the store")
	}

	// Client side: a transfer whose bytes do not match the stamped hash
	// is an error, not silently-decoded garbage.
	tampered := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(headerSHA, artifactSum([]byte("what was stored")))
		w.Write([]byte("what arrived"))
	}))
	defer tampered.Close()
	bad := &httpStore{base: tampered.URL, client: http.DefaultClient}
	if _, err := bad.Get("k"); err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Errorf("tampered GET error = %v, want hash mismatch", err)
	}
}

// Worker telemetry streams back and merges into one ledger that
// validates, with per-node identity on worker meta and spans.
func TestGridLedgerMerge(t *testing.T) {
	store, err := lab.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	led := obs.NewLedger(&buf)
	led.EmitMeta(obs.NewMeta("grid-test"))

	c := NewCoordinator(store, Config{Lease: 5 * time.Second, Stall: 30 * time.Second})
	c.SetLedger(led)
	addr := startCoordinator(t, c)
	wg := startWorkers(t, addr, 1)

	l := lab.New()
	l.RegisterScenario(shortLeadSlowdown())
	l.SetStore(store)
	l.SetRemote(c)
	l.SetLedger(led)
	l.Require(testCampaign())

	c.Close()
	c.Drain(2 * time.Second)
	wg.Wait()
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := obs.ReadLedger(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Validate(recs); err != nil {
		t.Fatalf("merged ledger does not validate: %v", err)
	}
	var workerMeta, workerSpans, localSpans int
	for _, rec := range recs {
		switch {
		case rec.Meta != nil && rec.Meta.Node == "worker-1":
			workerMeta++
			if rec.Meta.Tool != "experiments-worker" {
				t.Errorf("worker meta tool = %q", rec.Meta.Tool)
			}
		case rec.Span != nil && rec.Span.Node == "worker-1":
			workerSpans++
		case rec.Span != nil && rec.Span.Node == "":
			localSpans++
		}
	}
	if workerMeta != 1 {
		t.Errorf("merged ledger holds %d worker meta records, want 1", workerMeta)
	}
	if workerSpans == 0 {
		t.Error("no worker spans in the merged ledger")
	}
	if localSpans == 0 {
		t.Error("no coordinator-side spans in the merged ledger")
	}
}

// BenchmarkGridStudy runs the bench-size study through a coordinator over
// a disk store and two loopback workers (which, like the lab here, run the
// shortened LeadSlowdown): against campbench's study workload, the
// fabric's overhead of artifact transfer and job leasing.
func BenchmarkGridStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		store, err := lab.NewDiskStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		c := NewCoordinator(store, Config{})
		wg := startWorkers(b, startCoordinator(b, c), 2)
		o := report.BenchOptions()
		o.Lab = lab.New()
		o.Lab.RegisterScenario(shortLeadSlowdown())
		o.Lab.SetStore(store)
		o.Lab.SetRemote(c)
		report.NewStudy(o)
		c.Close()
		c.Drain(2 * time.Second)
		wg.Wait()
	}
}
