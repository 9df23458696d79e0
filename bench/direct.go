package main

import (
	"context"
	"path/filepath"
	"strings"
	"time"

	"aic/internal/ckpt"
	"aic/internal/delta"
	"aic/internal/recovery"
	"aic/internal/ring"
	"aic/internal/storage"
)

// directTimes holds the traced pass's direct calls into layers the facades
// do not let the benchmark interpose on: the same functions the program
// runs inside DeltaCheckpoint, Checkpoint and Restore, called again on the
// recorded inputs, outside every timed op.
type directTimes struct {
	deltaEncodeMs    []float64
	deltaEncodeBytes int64
	deltaEncodeSec   float64
	chunkBytes       int64
	chunkSec         float64
	splitMs          []float64

	// One entry per traced restore, in order.
	ckptDecodeMs  []float64
	deltaDecodeMs []float64
	replayMs      []float64
	reassembleMs  []float64
	replayedBytes []int64

	placeUs       float64
	replicaSpread float64
	errs          []string
}

func (d *directTimes) fail(err error) {
	if len(d.errs) < 8 {
		d.errs = append(d.errs, err.Error())
	}
}

// stripeCount is ClientConfig's default for StripeCount at its default
// Replicas.
const stripeCount = 2

// encode calls the delta codec on rank 0's updates, and the chunker or the
// stripe splitter on the frame they became, as the store path will.
func (d *directTimes) encode(w workload, upd []delta.PageUpdate, frame []byte) {
	t0 := time.Now()
	_, st := delta.EncodePageAlignedParallelStats(upd, 0, 0)
	dt := time.Since(t0)
	d.deltaEncodeMs = append(d.deltaEncodeMs, ms(dt))
	d.deltaEncodeBytes += int64(st.InputBytes)
	d.deltaEncodeSec += dt.Seconds()

	if !w.ring {
		t0 = time.Now()
		delta.Chunks(frame, delta.ChunkConfig{})
		d.chunkSec += time.Since(t0).Seconds()
		d.chunkBytes += int64(len(frame))
	}
	if w.stripeThreshold > 0 && len(frame) > w.stripeThreshold {
		t0 = time.Now()
		_, _, err := ckpt.SplitStripes(0, frame, stripeCount)
		d.splitMs = append(d.splitMs, ms(time.Since(t0)))
		if err != nil {
			d.fail(err)
		}
	}
}

// reassemble re-splits one fetched element the way Checkpoint striped it and
// times putting it back together, as Restore did before handing it over.
func reassemble(elem []byte) (time.Duration, error) {
	manifest, parts, err := ckpt.SplitStripes(0, elem, stripeCount)
	if err != nil {
		return 0, err
	}
	man, err := ckpt.DecodeStripe(manifest)
	if err != nil {
		return 0, err
	}
	frames := make([]*ckpt.StripeFrame, len(parts))
	for i, p := range parts {
		if frames[i], err = ckpt.DecodeStripe(p); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	_, err = ckpt.ReassembleStripes(man, frames)
	return time.Since(t0), err
}

// restore replays one fetched chain layer by layer.
func (d *directTimes) restore(w workload, chain [][]byte) {
	var reasm, decode, deltaDecode time.Duration
	stored := make([]storage.Stored, len(chain))
	decoded := make([]*ckpt.Checkpoint, len(chain))
	for i, elem := range chain {
		if w.stripeThreshold > 0 && len(elem) > w.stripeThreshold {
			dt, err := reassemble(elem)
			if err != nil {
				d.fail(err)
			}
			reasm += dt
		}
		t0 := time.Now()
		c, err := ckpt.Decode(elem)
		decode += time.Since(t0)
		if err != nil {
			d.fail(err)
			return
		}
		stored[i], decoded[i] = storage.Stored{Seq: c.Seq, Data: elem}, c
	}

	// The chain is one full anchor and its deltas; decode each delta
	// against the image replayed so far, as ckpt.Restore does.
	as, err := ckpt.Restore(decoded[:1])
	if err != nil {
		d.fail(err)
		return
	}
	for _, c := range decoded[1:] {
		t0 := time.Now()
		pages, err := delta.DecodePageAlignedParallel(c.Payload, as.Page, 0)
		deltaDecode += time.Since(t0)
		if err != nil {
			d.fail(err)
			return
		}
		for idx, content := range pages {
			as.Write(idx, 0, content, 0)
		}
	}

	t0 := time.Now()
	_, rep, err := recovery.RestoreLatestGood(stored)
	replay := time.Since(t0)
	if err != nil {
		d.fail(err)
		return
	}
	d.reassembleMs = append(d.reassembleMs, ms(reasm))
	d.ckptDecodeMs = append(d.ckptDecodeMs, ms(decode))
	d.deltaDecodeMs = append(d.deltaDecodeMs, ms(deltaDecode))
	d.replayMs = append(d.replayMs, ms(replay))
	d.replayedBytes = append(d.replayedBytes, rep.Bytes)
}

// placement times Ring.Place on the benchmark's keys and counts how evenly
// the chain elements ended up spread over the peers.
func (d *directTimes) placement(ctx context.Context, c *cluster) {
	names := make([]string, len(c.peers))
	for i, p := range c.peers {
		names[i] = p.name
	}
	rg := ring.New(names, 0)
	key := storage.Qualify(tenant, rankName(0))
	const calls = 20000
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		rg.Place(key, max(c.w.replicas, 2))
	}
	d.placeUs = float64(time.Since(t0).Microseconds()) / calls

	lo, hi := -1, 0
	for _, p := range c.peers {
		n := 0
		keys, err := p.store.List(ctx)
		if err != nil {
			d.fail(err)
			return
		}
		for _, k := range keys {
			entries, err := c.disks[p.name].ReadDir(filepath.Join(p.name, storage.ProcDirName(k)))
			if err != nil {
				d.fail(err)
				return
			}
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".aic") {
					n++
				}
			}
		}
		if lo < 0 || n < lo {
			lo = n
		}
		hi = max(hi, n)
	}
	d.replicaSpread = float64(hi) / float64(max(lo, 1))
}
