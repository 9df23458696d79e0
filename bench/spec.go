package main

import (
	"fmt"
	"math"
)

const pageSize = 4096

// workload is one set of inputs. A step protects every rank once: the
// benchmark mutates the ranks' images identically (untimed), then each rank
// in turn does Process.DeltaCheckpoint + the facade's store call (timed).
// A cycle is deltaSteps delta steps followed by one retire op that bounds
// the chain: FullCheckpoint + Checkpoint + Truncate through the ring facade,
// CheckpointDir.Compact through the directory facade. Counts are fixed, so
// every run of one seed does exactly the same operations.
type workload struct {
	name string
	why  string

	ring            bool // Client/Namespace facade; false = CheckpointDir
	replicas        int  // ring: ClientConfig.Replicas (0 = facade default)
	stripeThreshold int  // ring: ClientConfig.StripeThreshold

	ranks     int // processes with byte-identical images and writes
	pages     int // image size per rank
	hotPages  int // fixed page set lightly edited every step (delta-coded)
	coldPages int // pages rewritten whole every step, sweeping the image (raw)

	deltaSteps  int // delta steps per cycle
	cycles      int // cycles per round at the reference run length
	warmCycles  int // untimed cycles inside set-up
	restoreAt   int // delta steps into a cycle at which restores are made: their chain depth
	restores    int // restores per round at the reference run length
	warmRestore int // untimed restores inside set-up
}

// hotEdits × hotEditBytes is how lightly a hot page changes per step.
const (
	hotEdits     = 4
	hotEditBytes = 64
)

// rounds never scales: the end-to-end metrics are medians over rounds.
const (
	rounds       = 5
	tracedRounds = 2
	// refSeconds is the run length the cycle counts below are sized for;
	// --seconds scales cycles and restores linearly from it.
	refSeconds = 30
	// setupRepeats set-ups run back to back and setup_s is their median;
	// the last one is the cluster the run measures.
	setupRepeats = 3
)

var workloads = []workload{
	{
		name: "ring_hot_delta",
		why:  "tiny delta frames to 3 replicas: per-Put fixed cost (flushes, manifest, round trips) dominates, bytes do not",
		ring: true, replicas: 3,
		ranks: 1, pages: 2048, hotPages: 256,
		deltaSteps: 31, cycles: 5, warmCycles: 3, restoreAt: 15, restores: 16, warmRestore: 4,
	},
	{
		name: "ring_cold_bulk",
		why:  "4 MiB raw striped frames to 2 of 3 peers: copy, CRC, wire and file bytes dominate, the delta codec is idle",
		ring: true, replicas: 0, stripeThreshold: 1 << 20,
		ranks: 1, pages: 4096, coldPages: 1024,
		deltaSteps: 15, cycles: 3, warmCycles: 2, restoreAt: 7, restores: 3, warmRestore: 2,
	},
	{
		name:  "dir_dedup_gang",
		why:   "the other facade: four identical ranks through dedup chunking, concurrent verified fan-out, compaction and recipe reads",
		ring:  false,
		ranks: 4, pages: 1024, hotPages: 128, coldPages: 64,
		deltaSteps: 16, cycles: 1, warmCycles: 1, restoreAt: 8, restores: 8, warmRestore: 4,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns w sized for a run of the given length. Populations, rounds
// and chain depths never change; only how many cycles and restores a run
// measures.
func (w workload) scaled(seconds int) workload {
	f := float64(seconds) / refSeconds
	w.cycles = max(1, int(math.Round(float64(w.cycles)*f)))
	w.restores = max(w.ranks, int(math.Round(float64(w.restores)*f)))
	return w
}

func (w workload) imageBytes() int64 { return int64(w.ranks) * int64(w.pages) * pageSize }

// metricDef names one reported metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ckpt_ack_p50_ms", unit: "ms", better: "lower", bound: 0.20},
	{name: "ckpt_mibps", unit: "MiB/s", better: "higher", bound: 0.20},
	{name: "restore_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_ms_per_ckpt", unit: "ms", better: "lower", bound: 0.25},
	{name: "space_amp", unit: "ratio", better: "lower", bound: 0.005},
}

var perLayer = []metricDef{
	{name: "facade.ckpt_ack_p99_ms", unit: "ms", better: "lower"},
	{name: "facade.full_ack_p50_ms", unit: "ms", better: "lower"},
	{name: "facade.fanout_self_ms", unit: "ms", better: "lower"},
	{name: "facade.fanout_overlap", unit: "ratio", better: "higher"},
	{name: "facade.unattributed_ms", unit: "ms", better: "lower"},
	{name: "facade.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "facade.degraded_acks", unit: "count", better: "lower"},

	{name: "ckpt.encode_ms", unit: "ms", better: "lower"},
	{name: "ckpt.frame_self_ms", unit: "ms", better: "lower"},
	{name: "ckpt.bytes_per_ckpt", unit: "bytes", better: "lower"},
	{name: "ckpt.decode_ms", unit: "ms", better: "lower"},
	{name: "ckpt.stripe_split_ms", unit: "ms", better: "lower"},
	{name: "ckpt.stripe_reassemble_ms", unit: "ms", better: "lower"},

	{name: "delta.encode_ms", unit: "ms", better: "lower"},
	{name: "delta.encode_mibps", unit: "MiB/s", better: "higher"},
	{name: "delta.decode_ms", unit: "ms", better: "lower"},
	{name: "delta.ratio", unit: "ratio", better: "lower"},
	{name: "delta.hot_page_share", unit: "ratio", better: "higher"},
	{name: "delta.chunk_mibps", unit: "MiB/s", better: "higher"},

	{name: "storage.put_ms", unit: "ms", better: "lower"},
	{name: "storage.get_ms", unit: "ms", better: "lower"},
	{name: "storage.fsyncs_per_ckpt", unit: "count", better: "lower"},
	{name: "storage.flush_wait_ms_per_ckpt", unit: "ms", better: "lower"},
	{name: "storage.files_written_per_ckpt", unit: "count", better: "lower"},
	{name: "storage.renames_per_ckpt", unit: "count", better: "lower"},
	{name: "storage.write_amp", unit: "ratio", better: "lower"},
	{name: "storage.manifest_bytes_per_ckpt", unit: "bytes", better: "lower"},
	{name: "storage.chunk_index_bytes_per_ckpt", unit: "bytes", better: "lower"},
	{name: "storage.dedup_ratio", unit: "ratio", better: "higher"},
	{name: "storage.dedup_hit_put_ms", unit: "ms", better: "lower"},
	{name: "storage.dedup_miss_put_ms", unit: "ms", better: "lower"},
	{name: "storage.reads_per_restore", unit: "count", better: "lower"},
	{name: "storage.read_bytes_per_restore", unit: "bytes", better: "lower"},

	{name: "remote.put_ms", unit: "ms", better: "lower"},
	{name: "remote.wire_self_ms", unit: "ms", better: "lower"},
	{name: "remote.wire_mibps", unit: "MiB/s", better: "higher"},
	{name: "remote.get_ms", unit: "ms", better: "lower"},
	{name: "remote.get_wire_self_ms", unit: "ms", better: "lower"},
	{name: "remote.retries", unit: "count", better: "lower"},
	{name: "remote.window_stalls", unit: "count", better: "lower"},

	{name: "ring.place_us", unit: "us", better: "lower"},
	{name: "ring.replica_spread", unit: "ratio", better: "lower"},

	{name: "recovery.fetch_ms", unit: "ms", better: "lower"},
	{name: "recovery.replay_ms", unit: "ms", better: "lower"},
	{name: "recovery.merge_self_ms", unit: "ms", better: "lower"},
	{name: "recovery.bytes_fetched_per_restore", unit: "bytes", better: "lower"},
	{name: "recovery.fetch_amp", unit: "ratio", better: "lower"},

	{name: "compact.pass_ms", unit: "ms", better: "lower"},
	{name: "compact.bytes_rewritten_per_pass", unit: "bytes", better: "lower"},
	{name: "compact.elems_dropped", unit: "count", better: "lower"},
}
