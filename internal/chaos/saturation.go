package chaos

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"aic"
	"aic/internal/control"
	"aic/internal/storage"
)

// The saturation scenario's fixed shape, sized for a sub-second run.
const (
	// satSyncDelay is the fsync stall injected during the saturation
	// phase; it lands well above satThreshold's bucket.
	satSyncDelay = 20 * time.Millisecond
	// satThreshold is the controller's fsync-p99 saturation threshold, in
	// seconds: half the injected stall.
	satThreshold = 0.01
	// satMaxRounds bounds each phase's append/step loop, so a controller
	// that never converges fails the scenario instead of spinning.
	satMaxRounds = 60
)

// SaturationResult reports the scenario: the shed arc the controller
// walked, what replication did at the bottom of it, and the final
// /metrics exposition for end-to-end assertions. A violation's step is the
// phase (1 healthy, 2 saturated, 3 recovering, 4 the final tallies).
type SaturationResult struct {
	RunLog
	ShedArc     []control.Level // level after every ladder movement, in order
	ShedSkips   float64         // appends that skipped the fan-out while shed
	PeerGapSeqs []int           // seqs the peer never received (shed while appended)
	MetricsText string          // final Prometheus exposition
}

// RunSaturation drives the adaptive-control loop end to end through the
// production stack: a real FSStore (behind a DelayFS fault injector), a
// replication peer, live metrics, and the saturation controller acting on
// the CheckpointDir. The arc it pins:
//
//  1. healthy traffic holds LevelNormal;
//  2. a sustained fsync stall sheds to LevelLocalOnly, where Appends
//     verifiably stop reaching the peer;
//  3. when the stall clears, hysteresis restores LevelNormal and the peer
//     fan-out resumes.
//
// The controller is stepped manually (no wall-clock ticker), so the arc is
// reproducible; the only real time in the run is the injected stall itself.
//
//aiclint:ignore testonly chaos scenario entry point, run by its soak test until ROADMAP item 7 ports the scenarios onto one Store driver
func RunSaturation(ctx context.Context) (*SaturationResult, error) {
	res := &SaturationResult{RunLog: RunLog{name: "saturation"}}

	scratch, err := os.MkdirTemp("", "aic-saturation-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	dfs := storage.NewDelayFS(nil)
	local, err := storage.NewFSStoreFS(filepath.Join(scratch, "local"), storage.Target{Name: "local"}, dfs)
	if err != nil {
		return nil, err
	}
	peer := storage.NewMemStore(storage.Target{Name: "peer"})
	reg := aic.NewMetricsRegistry()
	dir, err := aic.OpenCheckpointDir("",
		aic.WithStore(local),
		aic.WithReplication(aic.Replication{Stores: []aic.Store{peer}, Quorum: 1}),
		aic.WithMetrics(reg),
		aic.WithAdaptiveControl(aic.AdaptiveControlConfig{
			FsyncP99Threshold: satThreshold,
			SaturateAfter:     6,
			RecoverAfter:      2,
		}))
	if err != nil {
		return nil, err
	}
	defer dir.Close()
	ctrl := dir.Controller()

	seq := 0
	append1 := func() error {
		err := dir.Append(ctx, "sat", seq, []byte{byte(seq)})
		if err == nil {
			seq++
		}
		return err
	}

	// Phase 1: healthy traffic never moves the ladder.
	for i := 0; i < 3; i++ {
		if err := append1(); err != nil {
			return nil, fmt.Errorf("healthy append: %w", err)
		}
		d := ctrl.Step()
		if d.Changed {
			res.violate(1, "healthy-hold", "healthy sample moved the ladder to %v", d.Level)
		}
	}
	if lvl := ctrl.Level(); lvl != control.LevelNormal {
		res.violate(1, "healthy-hold", "level %v after healthy phase, want normal", lvl)
	}
	res.logf("healthy held level=%v", ctrl.Level())

	// Phase 2: sustained stall. Each round appends (so the sample window
	// holds stalled fsyncs) and steps once; the ladder must reach
	// LevelLocalOnly.
	dfs.SetSyncDelay(satSyncDelay)
	for i := 0; i < satMaxRounds && ctrl.Level() < control.LevelLocalOnly; i++ {
		if err := append1(); err != nil {
			return nil, fmt.Errorf("saturated append: %w", err)
		}
		if d := ctrl.Step(); d.Changed {
			res.ShedArc = append(res.ShedArc, d.Level)
			res.logf("shed to level=%v p99=%.3fs", d.Level, d.Signals.FsyncP99)
		}
	}
	if lvl := ctrl.Level(); lvl != control.LevelLocalOnly {
		res.violate(2, "shed-stuck", "ladder stuck at %v under sustained saturation", lvl)
	}
	if dir.ReplicationEnabled() {
		res.violate(2, "shed-replication", "replication still enabled at local-only")
	}

	// While shed, appends commit locally and verifiably skip the peer.
	shedStart := seq
	for i := 0; i < 2; i++ {
		if err := append1(); err != nil {
			res.violate(2, "shed-append", "shed append failed: %v", err)
		}
	}
	for s := shedStart; s < seq; s++ {
		if _, ok, err := storage.ReadElem(ctx, peer, "sat", s); err == nil && !ok {
			res.PeerGapSeqs = append(res.PeerGapSeqs, s)
		}
	}
	if len(res.PeerGapSeqs) != seq-shedStart {
		res.violate(2, "shed-leak", "shed appends reached the peer anyway (gaps %v)", res.PeerGapSeqs)
	}

	// Phase 3: the stall clears. Idle samples read healthy (an empty fsync
	// window is not saturation), so hysteresis restores replication.
	dfs.SetSyncDelay(0)
	for i := 0; i < satMaxRounds && ctrl.Level() > control.LevelNormal; i++ {
		if d := ctrl.Step(); d.Changed {
			res.ShedArc = append(res.ShedArc, d.Level)
			res.logf("restored to level=%v", d.Level)
		}
	}
	if lvl := ctrl.Level(); lvl != control.LevelNormal {
		res.violate(3, "recover-stuck", "ladder never recovered: level %v", lvl)
	}
	if !dir.ReplicationEnabled() {
		res.violate(3, "recover-replication", "replication not restored at normal")
	}

	// Replication resumes: the first post-recovery append reaches the peer.
	resumeSeq := seq
	if err := append1(); err != nil {
		res.violate(3, "resume", "post-recovery append failed: %v", err)
	} else if _, ok, gerr := storage.ReadElem(ctx, peer, "sat", resumeSeq); gerr != nil || !ok {
		res.violate(3, "resume", "post-recovery append did not reach the peer (ok=%v err=%v)", ok, gerr)
	}

	wantArc := []control.Level{control.LevelLocalOnly, control.LevelNormal}
	if !slices.Equal(res.ShedArc, wantArc) {
		res.violate(4, "shed-arc", "shed arc %v, want %v", res.ShedArc, wantArc)
	}

	if v, ok := reg.Value("aic_ckptdir_append_shed_total"); ok {
		res.ShedSkips = v
	}
	res.MetricsText = reg.Text()
	for _, want := range []string{
		"aic_control_sheds_total 1",
		"aic_control_restores_total 1",
		"aic_control_shed_level 0",
		"aic_ckptdir_append_shed_total 2",
	} {
		if !strings.Contains(res.MetricsText, want) {
			res.violate(4, "metrics", "/metrics missing %q", want)
		}
	}
	return res, nil
}
