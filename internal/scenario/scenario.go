// Package scenario defines the driving scenarios of the paper's §IV-C:
// the three NHTSA-style safety-critical test scenarios (lead slowdown,
// ghost cut-in, front accident) and the three long training routes with
// background traffic used to train the error detector.
//
// A scenario is declarative setup plus per-NPC scripts; the sim package
// owns the loop. Scripts receive the scenario clock and seeded jitter, so
// runs of the same scenario differ slightly (the paper's golden-run
// non-determinism) while remaining reproducible from the seed.
package scenario

import (
	"fmt"
	"math"

	"diverseav/internal/geom"
	"diverseav/internal/physics"
	"diverseav/internal/rng"
	"diverseav/internal/world"
)

// NPC is one scripted non-player vehicle.
type NPC struct {
	Follower *physics.LaneFollower
	// Braking is set by scripts while the NPC is slowing hard; the
	// rasterizer lights its brake strip.
	Braking bool
	// Phase is the script's progress counter (0 = initial). Scripts keep
	// ALL their mutable state here rather than in closure variables so a
	// checkpointed environment can be restored: closures rebuilt by
	// re-instantiating the scenario carry the same immutable parameters
	// (seeded jitter), and Phase carries the part that evolved mid-run.
	Phase int
	// Script advances the NPC's intent at simulation time t. It runs
	// before the NPC's physics step each frame.
	Script func(t float64, self *NPC, env *Env)
}

// Env is the live scenario state handed to NPC scripts and the sim loop.
type Env struct {
	Town  *world.Town
	Route *world.Route
	Ego   *physics.Vehicle
	NPCs  []*NPC
	Rand  *rng.Rand
}

// Vehicles returns all vehicles (ego first) for collision checks and
// rendering.
func (e *Env) Vehicles() []*physics.Vehicle {
	vs := make([]*physics.Vehicle, 0, len(e.NPCs)+1)
	vs = append(vs, e.Ego)
	for _, n := range e.NPCs {
		vs = append(vs, n.Follower.Vehicle)
	}
	return vs
}

// Scenario is a declarative scenario definition.
type Scenario struct {
	Name string
	// SafetyCritical distinguishes test scenarios from training routes.
	SafetyCritical bool
	// Duration is the simulated length in seconds.
	Duration float64
	// NewTown constructs the map (fresh per run: towns are cheap and
	// runs must not share state).
	NewTown func() *world.Town
	// RouteName selects the ego route within the town.
	RouteName string
	// EgoStation and EgoSpeed place the ego vehicle (jittered per run).
	EgoStation float64
	EgoSpeed   float64
	// Setup creates the NPCs. It runs once after the ego is placed.
	Setup func(env *Env)
}

// Instantiate builds the live environment for one run, applying seeded
// jitter to the ego start so golden runs differ naturally.
func (s *Scenario) Instantiate(seed uint64) *Env {
	r := rng.New(seed)
	town := s.NewTown()
	route, err := town.Route(s.RouteName)
	if err != nil {
		panic(err) // static scenario definitions must reference real routes
	}
	env := &Env{Town: town, Route: route, Rand: r.Split("scenario")}
	st := s.EgoStation + env.Rand.Range(-0.15, 0.15)
	pos, yaw := route.Path.PoseAt(st)
	env.Ego = physics.NewVehicle("ego", geom.Pose{Pos: pos, Yaw: yaw})
	env.Ego.State.V = math.Max(0, s.EgoSpeed+env.Rand.Range(-0.05, 0.05))
	if s.Setup != nil {
		s.Setup(env)
	}
	return env
}

// NPCState is one NPC's snapshot: its follower (vehicle + control
// state) plus the script-visible flags.
type NPCState struct {
	Follower physics.FollowerState
	Braking  bool
	Phase    int
}

// EnvState is a deep snapshot of a live environment's mutable state. It
// deliberately excludes the scripts themselves (closures are rebuilt by
// re-instantiating the scenario from the same seed, which reproduces
// their captured jitter parameters bit-for-bit) and the immutable town
// and route geometry (shared by pointer).
type EnvState struct {
	Ego  physics.State
	Rand rng.State
	NPCs []NPCState
}

// Snapshot captures the environment's mutable state.
func (e *Env) Snapshot() *EnvState {
	return e.SnapshotInto(nil)
}

// SnapshotInto is Snapshot writing into dst, reusing dst's NPC slice
// when its capacity suffices (the checkpoint-pool path). A nil dst
// allocates a fresh state.
func (e *Env) SnapshotInto(dst *EnvState) *EnvState {
	if dst == nil {
		dst = &EnvState{}
	}
	dst.Ego = e.Ego.State
	dst.Rand = e.Rand.Snapshot()
	if cap(dst.NPCs) < len(e.NPCs) {
		dst.NPCs = make([]NPCState, len(e.NPCs))
	} else {
		dst.NPCs = dst.NPCs[:len(e.NPCs)]
	}
	for i, n := range e.NPCs {
		dst.NPCs[i] = NPCState{Follower: n.Follower.Snapshot(), Braking: n.Braking, Phase: n.Phase}
	}
	return dst
}

// DigestFNV folds the environment's mutable state — ego vehicle state,
// scenario RNG stream, and every NPC's follower/flag state — into a
// running FNV-64a hash. It covers exactly the state SnapshotInto
// captures (minus shared immutable geometry) and must be kept in
// lockstep with it: the divergence tracker in internal/sim uses
// digest equality as the cheap necessary condition for StateEquals.
func (e *Env) DigestFNV(h uint64) uint64 {
	h = e.Ego.State.DigestFNV(h)
	h = e.Rand.Snapshot().DigestFNV(h)
	for _, n := range e.NPCs {
		h = n.Follower.DigestFNV(h)
		var flags uint64
		if n.Braking {
			flags = 1
		}
		flags |= uint64(int64(n.Phase)) << 1
		h = (h ^ flags) * 1099511628211
	}
	return h
}

// StateEquals reports whether the live environment's mutable state is
// bit-exactly the snapshot: same ego state, RNG position, and NPC
// follower/script state. It is the full confirmation behind a DigestFNV
// match.
func (e *Env) StateEquals(st *EnvState) bool {
	if len(e.NPCs) != len(st.NPCs) {
		return false
	}
	if !e.Ego.State.EqualBits(st.Ego) || e.Rand.Snapshot() != st.Rand {
		return false
	}
	for i, n := range e.NPCs {
		s := &st.NPCs[i]
		if n.Braking != s.Braking || n.Phase != s.Phase || !n.Follower.StateEquals(s.Follower) {
			return false
		}
	}
	return true
}

// Restore rewinds a freshly instantiated environment (same scenario,
// same seed) to a snapshot. The NPC sets must match: checkpointing does
// not support scripts that add or remove NPCs mid-run, because their
// scripts could not be rebuilt by re-instantiation.
func (e *Env) Restore(st *EnvState) error {
	if len(e.NPCs) != len(st.NPCs) {
		return fmt.Errorf("scenario: restore: env has %d NPCs, snapshot has %d (mid-run NPC changes are not checkpointable)", len(e.NPCs), len(st.NPCs))
	}
	e.Ego.State = st.Ego
	e.Rand.Restore(st.Rand)
	for i, n := range e.NPCs {
		n.Follower.Restore(st.NPCs[i].Follower)
		n.Braking = st.NPCs[i].Braking
		n.Phase = st.NPCs[i].Phase
	}
	return nil
}

// addNPC creates an NPC on the given lane.
func addNPC(env *Env, name, laneID string, station, speed float64, script func(t float64, self *NPC, env *Env)) *NPC {
	lane, ok := env.Town.Lane(laneID)
	if !ok {
		panic("scenario: unknown lane " + laneID)
	}
	v := physics.NewVehicle(name, geom.Pose{})
	n := &NPC{
		Follower: physics.NewLaneFollower(v, lane.Center, station, speed),
		Script:   script,
	}
	env.NPCs = append(env.NPCs, n)
	return n
}

// mergePath builds a lane-change trajectory from the NPC's current
// position into the target lane, merging over the given longitudinal
// distance and continuing along the target lane.
func mergePath(env *Env, from *physics.LaneFollower, targetLane *world.Lane, mergeLen float64) *geom.Polyline {
	start := from.Vehicle.State.Pose.Pos
	st, _ := targetLane.Center.Project(start)
	pts := []geom.Vec2{start}
	const steps = 12
	for i := 1; i <= steps; i++ {
		f := float64(i) / steps
		// Smoothstep blend of lateral position into the target lane.
		blend := f * f * (3 - 2*f)
		target := targetLane.Center.At(st + float64(mergeLen*f))
		src := start.Add(target.Sub(targetLane.Center.At(st)))
		pts = append(pts, src.Lerp(target, blend))
	}
	// Continue along the target lane beyond the merge.
	end := st + mergeLen
	for d := 10.0; d <= 200; d += 10 {
		pts = append(pts, targetLane.Center.At(end+d))
	}
	return geom.MustPolyline(pts)
}
