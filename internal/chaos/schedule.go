// Package chaos is the whole-stack correctness backstop: a seeded,
// deterministic soak harness that drives a simulated workload through the
// real production stack — the parallel page-aligned delta Builder, a
// FaultFS-wrapped durable FSStore, and the directory facade's replica set
// of that store plus three peers over real in-process TCP replication
// servers — while a replayable fault
// schedule injects torn writes, lost renames, bit flips, connection cuts at
// exact byte offsets, peer deaths and restarts, and process crashes between
// and during checkpoints. After every failure the harness performs a full
// recovery through the aic facade and asserts cross-layer invariants (see
// harness.recover); a run is identified entirely by its seed, so any
// failure reproduces with the same seed and schedule. Three more scenarios
// — ring churn, compaction chaos and saturation — run on the same core
// (core.go): one replication node, one run log, one acked-state ledger.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"aic/internal/failure"
	"aic/internal/numeric"
)

// Kind names a fault-injection event class.
type Kind string

// Event kinds. Peer-targeted kinds use Event.Peer (0-based); local-store
// kinds ignore it. Event.N is the kind-specific magnitude documented per
// constant.
const (
	// KindTornWrite arms the local FaultFS to crash on an upcoming
	// WriteFile inside the next checkpoint Put — its data file's temp
	// write — leaving N%PageSize torn bytes on disk.
	KindTornWrite Kind = "torn-write"
	// KindLostRename arms the local FaultFS to crash on the next directory
	// fsync, rolling back every rename the platter had not pinned (N's low
	// bit instead picks a plain rename-window crash).
	KindLostRename Kind = "lost-rename"
	// KindBitFlip flips bit Bit of byte (N mod size) in a stored checkpoint
	// file — silent corruption the scrub's CRC cross-check must catch. Peer
	// -1 targets the local store, otherwise the peer's durable store.
	KindBitFlip Kind = "bit-flip"
	// KindConnCut severs the peer's live server connections and cuts the
	// next re-dialed connection after exactly N bytes have crossed it.
	KindConnCut Kind = "conn-cut"
	// KindDialFail severs the peer's live connections and refuses the next
	// dial outright.
	KindDialFail Kind = "dial-fail"
	// KindPeerDeath stops the peer's replication server; its durable store
	// survives for the restart.
	KindPeerDeath Kind = "peer-death"
	// KindPeerRestart brings a dead peer back on its original address.
	KindPeerRestart Kind = "peer-restart"
	// KindCrash kills the live process between checkpoints: dirty state
	// since the last checkpoint is lost and recovery replays the chain.
	KindCrash Kind = "crash"
	// KindFlipAll flips a bit in the newest quorum-committed checkpoint on
	// the local store AND every peer — corruption beyond the fault model
	// the stack defends against (three independent replicas do not all rot
	// at once). It exists as the known-bad fixture proving the invariant
	// checker catches real regressions; the generator never emits it.
	KindFlipAll Kind = "flip-all"
)

// Event is one scheduled fault.
type Event struct {
	Step int  // 1-based workload step at which the event fires
	Kind Kind // what happens
	Peer int  // 0-based peer ordinal; -1 = local store (KindBitFlip)
	N    int  // kind-specific magnitude (torn bytes, cut offset, byte offset)
	Bit  int  // bit index for flips
}

// String renders the event in the schedule line format.
func (e Event) String() string {
	return fmt.Sprintf("step=%d kind=%s peer=%d n=%d bit=%d", e.Step, e.Kind, e.Peer, e.N, e.Bit)
}

// Schedule is a fault plan, ordered by step. Multiple events may share a
// step; they fire in slice order.
type Schedule []Event

// String renders the schedule one event per line — the format -schedule
// replays and ParseSchedule reads back.
func (s Schedule) String() string {
	var b strings.Builder
	for _, e := range s {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// ParseSchedule reads the String format back: one "step=N kind=K peer=P
// n=N bit=B" event per line (later fields optional), '#' comments and blank
// lines ignored.
func ParseSchedule(text string) (Schedule, error) {
	var s Schedule
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e := Event{Peer: -1}
		seen := map[string]bool{}
		for _, field := range strings.Fields(line) {
			k, v, ok := strings.Cut(field, "=")
			if !ok {
				return nil, fmt.Errorf("chaos: schedule line %d: field %q is not key=value", ln+1, field)
			}
			if seen[k] {
				return nil, fmt.Errorf("chaos: schedule line %d: duplicate field %q", ln+1, k)
			}
			seen[k] = true
			if k == "kind" {
				e.Kind = Kind(v)
				continue
			}
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("chaos: schedule line %d: bad %s: %w", ln+1, k, err)
			}
			switch k {
			case "step":
				e.Step = n
			case "peer":
				e.Peer = n
			case "n":
				e.N = n
			case "bit":
				e.Bit = n
			default:
				return nil, fmt.Errorf("chaos: schedule line %d: unknown field %q", ln+1, k)
			}
		}
		if e.Step <= 0 || e.Kind == "" {
			return nil, fmt.Errorf("chaos: schedule line %d: needs step>0 and kind", ln+1)
		}
		s = append(s, e)
	}
	sort.SliceStable(s, func(i, j int) bool { return s[i].Step < s[j].Step })
	return s, nil
}

// GenConfig parameterizes schedule generation.
type GenConfig struct {
	Steps  int     // workload steps the run will execute
	Peers  int     // peer count (faults are spread across them)
	Events int     // target number of events (approximate under Weibull timing)
	Rate   float64 // Weibull-timed mean fault rate per step; 0 derives it from Events
}

// Generate derives a fault schedule from a single seed. Event *times* come
// from the bursty Weibull failure process (shape 0.7, the paper's LANL
// profile) so faults cluster the way real node failures do; event *kinds*
// and magnitudes come from the same seeded stream.
//
// Data-destroying faults (bit flips, peer deaths) are confined to one
// victim store per crash epoch — between two recoveries at most one replica
// loses data, the regime under which the stack guarantees no restored
// sequence ever regresses past the last quorum-committed checkpoint.
// Transient faults (connection cuts, dial refusals) may hit any peer: the
// client's resume-and-retry envelope makes them lossless.
func Generate(seed uint64, cfg GenConfig) Schedule {
	if cfg.Steps <= 0 {
		cfg.Steps = 120
	}
	if cfg.Peers <= 0 {
		cfg.Peers = 3
	}
	if cfg.Events <= 0 {
		cfg.Events = 10
	}
	rate := cfg.Rate
	if rate <= 0 {
		rate = float64(cfg.Events) / float64(cfg.Steps)
	}
	rng := rand.New(rand.NewSource(int64(seed)))

	// Weibull-timed arrival steps: one failure class carries the whole rate
	// (the injector's three levels are a storage-cost notion the schedule
	// does not need). Shape 0.7 front-loads and clusters events.
	shapes, scales := failure.WeibullMatchingRates([3]float64{rate, 0, 0}, 0.7)
	winj, err := failure.NewWeibullInjector(numeric.NewRNG(seed+1), shapes, scales)
	if err != nil { // unreachable for rate > 0; fall back to uniform spacing
		winj = nil
	}
	var steps []int
	if winj != nil {
		now := 0.0
		for len(steps) < 4*cfg.Events {
			ev, ok := winj.Next(now)
			if !ok || ev.Time >= float64(cfg.Steps-1) {
				break
			}
			st := int(ev.Time) + 1
			if st < cfg.Steps {
				steps = append(steps, st)
			}
			now = ev.Time
		}
	}
	for len(steps) < cfg.Events { // top up thin Weibull draws deterministically
		steps = append(steps, 1+rng.Intn(cfg.Steps-1))
	}
	sort.Ints(steps)

	var (
		s      Schedule
		victim = rng.Intn(cfg.Peers+1) - 1 // -1 = local store
		dead   = -1                        // peer currently dead, -1 none
	)
	reviveBefore := func(step int) {
		if dead >= 0 {
			s = append(s, Event{Step: step, Kind: KindPeerRestart, Peer: dead})
			dead = -1
		}
	}
	for _, st := range steps {
		// A crash epoch ends at every crash-class event; the next epoch
		// draws a fresh victim.
		switch roll := rng.Intn(10); {
		case roll < 2: // transient network faults: any peer
			p := rng.Intn(cfg.Peers)
			if rng.Intn(2) == 0 {
				s = append(s, Event{Step: st, Kind: KindConnCut, Peer: p, N: 1 + rng.Intn(4096)})
			} else {
				s = append(s, Event{Step: st, Kind: KindDialFail, Peer: p})
			}
		case roll < 4: // silent corruption on the victim
			s = append(s, Event{Step: st, Kind: KindBitFlip, Peer: victim, N: rng.Intn(1 << 20), Bit: rng.Intn(8)})
		case roll < 6: // peer death (victim only, when the victim is a peer)
			if victim >= 0 && dead < 0 {
				s = append(s, Event{Step: st, Kind: KindPeerDeath, Peer: victim})
				dead = victim
			} else if dead >= 0 && rng.Intn(2) == 0 {
				reviveBefore(st)
			} else { // victim is the local store: crash it instead
				s = append(s, Event{Step: st, Kind: KindCrash, Peer: -1})
				reviveBefore(st)
				victim = rng.Intn(cfg.Peers+1) - 1
			}
		case roll < 8: // crash during a checkpoint's durable write
			kind := KindTornWrite
			if rng.Intn(2) == 1 {
				kind = KindLostRename
			}
			s = append(s, Event{Step: st, Kind: kind, Peer: -1, N: rng.Intn(4096)})
			reviveBefore(st)
			victim = rng.Intn(cfg.Peers+1) - 1
		default: // plain process crash between checkpoints
			s = append(s, Event{Step: st, Kind: KindCrash, Peer: -1})
			reviveBefore(st)
			victim = rng.Intn(cfg.Peers+1) - 1
		}
	}
	sort.SliceStable(s, func(i, j int) bool { return s[i].Step < s[j].Step })
	return s
}
