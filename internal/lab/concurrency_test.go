package lab

import (
	"os"
	"os/exec"
	"sync/atomic"
	"testing"
	"time"
)

// meetSpec is a test-only root job that waits, up to a timeout, for every
// job sharing its rendezvous to start. Its artifact reports whether they
// all met, which they can only do while running at the same time.
type meetSpec struct {
	Name string
	*rendezvous
}

type rendezvous struct {
	want    int32
	arrived atomic.Int32
	all     chan struct{}
}

func (s meetSpec) Key() string     { return "meet-" + s.Name }
func (s meetSpec) normalize() Spec { return s }
func (s meetSpec) deps() []Spec    { return nil }
func (s meetSpec) kind() string    { return "meet" }

func (s meetSpec) run(*Lab) any {
	if s.arrived.Add(1) == s.want {
		close(s.all)
	}
	select {
	case <-s.all:
		return true
	case <-time.After(10 * time.Second):
		return false
	}
}

// overlapChildEnv marks the re-executed test binary of
// TestIndependentRootsOverlap.
const overlapChildEnv = "LAB_FRESH_PROCESS_CHILD"

func TestIndependentRootsOverlap(t *testing.T) {
	// The par pool starts inside the first loop of a process, and this
	// package's other tests would have started it already. Re-run this
	// test alone in a fresh child at GOMAXPROCS=2, where the first
	// Require must run its two independent roots concurrently.
	if os.Getenv(overlapChildEnv) == "1" {
		rv := &rendezvous{want: 2, all: make(chan struct{})}
		a, b := meetSpec{"a", rv}, meetSpec{"b", rv}
		l := New()
		l.Require(a, b)
		for _, s := range []meetSpec{a, b} {
			if !l.get(s).(bool) {
				t.Errorf("root job %s ran alone: the DAG did not overlap independent jobs", s.Name)
			}
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestIndependentRootsOverlap$", "-test.count=1")
	cmd.Env = append(os.Environ(), overlapChildEnv+"=1", "GOMAXPROCS=2")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("fresh-process child failed: %v\n%s", err, out)
	}
}
