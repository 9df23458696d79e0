// Package storage models the checkpoint destinations of the paper's
// networked system: the node-local disk, the RAID-5 group of peer nodes
// (level 2) and the remote Lustre-like distributed file system (level 3).
// L2/L3 are bandwidth/latency models — exactly the "simulated components" of
// the paper's own testbed (Fig. 10). Every level holds its chains in one
// store engine, FSStore: on a directory, or on the in-memory MemFS
// (NewMemStore) for the simulators' levels.
package storage

// Byte-rate units.
const (
	KBps = 1e3
	MBps = 1e6
	GBps = 1e9
)

// Target is a checkpoint destination with a sustained bandwidth and a fixed
// per-operation latency.
type Target struct {
	Name         string
	BandwidthBps float64 // bytes per second
	LatencySec   float64 // fixed setup cost per operation
}

// TransferTime returns the modelled seconds to move n bytes to or from the
// target.
func (t Target) TransferTime(n int64) float64 {
	if n < 0 {
		n = 0
	}
	if t.BandwidthBps <= 0 {
		return t.LatencySec
	}
	return t.LatencySec + float64(n)/t.BandwidthBps
}

// System is the set of targets of one node in the networked system, plus
// the compute-side rates that drive delta-compression latency.
type System struct {
	Size      float64 // system scale factor (1.0 = the base Coastal cluster)
	LocalDisk Target  // level-1 destination (and staging for L2/L3)
	RAID5     Target  // level-2 destination; bandwidth B2
	Remote    Target  // level-3 destination; bandwidth B3 per node
	// CompressBps is the checkpointing core's delta-compression throughput
	// over input bytes (hash, match, emit).
	CompressBps float64
	// MetricBps is the computation core's throughput for the lightweight
	// JD/DI metrics (the paper reports < 100 µs per 4-KiB page).
	MetricBps float64
}

// Coastal returns the paper's base system (Section V.A): B2 = 483 GB/s,
// B3 = 2 MB/s per node (Lustre aggregate of 2.1 GB/s across 1024 writers),
// a 7200-RPM local SATA disk, scaled to the given system size. RMS scaling
// divides the per-node remote bandwidth by size while B2 grows with the
// RAID group and stays flat.
func Coastal(size float64) System {
	if size <= 0 {
		size = 1
	}
	return System{
		Size:        size,
		LocalDisk:   Target{Name: "local-disk", BandwidthBps: 90 * MBps, LatencySec: 0.008},
		RAID5:       Target{Name: "raid5-group", BandwidthBps: 483 * GBps, LatencySec: 0.001},
		Remote:      Target{Name: "remote-storage", BandwidthBps: 2 * MBps / size, LatencySec: 0.010},
		CompressBps: 400 * MBps,
		MetricBps:   4096 / 100e-6, // one page per 100 µs
	}
}

// ScaleFootprint rescales every byte rate by f, preserving the paper's
// time constants while the simulated benchmarks use footprints f× the
// paper's 1-GB processes (e.g. f = 1/64 for 16-MiB footprints). Because
// both the data volumes and the rates shrink by f, checkpoint and
// compression latencies stay in the paper's ranges.
func (s System) ScaleFootprint(f float64) System {
	if f <= 0 {
		return s
	}
	out := s
	out.LocalDisk.BandwidthBps *= f
	out.RAID5.BandwidthBps *= f
	out.Remote.BandwidthBps *= f
	out.CompressBps *= f
	return out
}

// BenchCompressBps is the effective Xdelta3 throughput observed on the
// paper's testbed (≈ 15 MB/s over input bytes, inferred from Table 3's
// delta latencies), used by the benchmark system model.
const BenchCompressBps = 15 * MBps

// BenchSystem returns the system model used for the SPEC-like benchmark
// experiments (Table 3, Figs. 2/11/12): the Coastal profile at the given
// system-size scale, with byte rates shrunk to the simulated footprint
// (footprintBytes vs the paper's 1-GB processes) and the compression rate
// calibrated to the testbed's measured delta latencies.
func BenchSystem(sizeScale float64, footprintBytes int64) System {
	s := Coastal(sizeScale)
	s.CompressBps = BenchCompressBps
	return s.ScaleFootprint(float64(footprintBytes) / (1 << 30))
}

// CompressTime returns the modelled delta-compression latency for reading
// in input bytes, compressing, and writing out output bytes via the local
// disk — the paper's dl measurement ("time to read two checkpoints, conduct
// delta compression, and write delta back to the local disk").
func (s System) CompressTime(in, out int64) float64 {
	t := s.LocalDisk.TransferTime(in) // read current + prior pages
	if s.CompressBps > 0 {
		t += float64(in) / s.CompressBps
	}
	t += s.LocalDisk.TransferTime(out)
	return t
}

// Stored is one checkpoint held by a store.
type Stored struct {
	Seq  int
	Data []byte
}
