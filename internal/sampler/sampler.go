// Package sampler implements AIC's hot-page selection (Section IV.E): hot
// pages are grouped by write-arrival time with threshold Tg, only the first
// page of each group enters a fixed-size Sample Buffer (SB), and Tg adapts —
// doubling when SB fills (merging groups and dropping now-redundant
// samples), halving when SB is more than half empty — to hold as many
// representative samples as possible at decision time.
package sampler

// Entry is one sampled hot page.
type Entry struct {
	Page    uint64
	Arrival float64
}

// DefaultTg is the initial grouping threshold in virtual seconds.
const DefaultTg = 0.01

// Sampler is the Sample Buffer plus its adaptive grouping threshold.
// It is not safe for concurrent use.
type Sampler struct {
	capacity int
	tg       float64
	adaptive bool
	entries  []Entry
}

// New creates a sampler holding at most capacityPages samples (the paper
// uses an 8-MB SB, i.e. 2048 4-KiB pages). initialTg ≤ 0 selects DefaultTg.
func New(capacityPages int, initialTg float64) *Sampler {
	if capacityPages <= 0 {
		capacityPages = 2048
	}
	if initialTg <= 0 {
		initialTg = DefaultTg
	}
	return &Sampler{capacity: capacityPages, tg: initialTg, adaptive: true}
}

// SetAdaptive enables or disables Tg adaptation (disabled = the fixed-Tg
// ablation; the buffer still drops overflow samples).
func (s *Sampler) SetAdaptive(on bool) { s.adaptive = on }

// Observe records a hot-page first-write event. Arrival times must be
// non-decreasing (they come from the interval's write barrier). Only a page
// starting a new arrival group is buffered.
func (s *Sampler) Observe(page uint64, arrival float64) {
	if n := len(s.entries); n > 0 && arrival-s.entries[n-1].Arrival <= s.tg {
		return // same group as the last buffered page
	}
	if len(s.entries) >= s.capacity {
		if !s.adaptive {
			return // fixed Tg: the overflow sample is dropped
		}
		// SB full: keep doubling Tg — merging groups under the widening
		// threshold and dropping the samples made redundant — until the
		// incoming sample fits (paper's "double when SB fills" rule). Once
		// Tg spans from the oldest buffered arrival to the incoming one,
		// further doubling cannot merge anything more, so stop.
		for len(s.entries) >= s.capacity {
			if s.tg > arrival-s.entries[0].Arrival {
				break
			}
			s.tg *= 2
			s.compact()
		}
		if n := len(s.entries); n > 0 && arrival-s.entries[n-1].Arrival <= s.tg {
			return // merged into the trailing group
		}
		if len(s.entries) >= s.capacity {
			return
		}
	}
	s.entries = append(s.entries, Entry{Page: page, Arrival: arrival})
}

// compact re-applies the current Tg to the buffered samples, keeping only
// the first page of each merged group.
func (s *Sampler) compact() {
	if len(s.entries) == 0 {
		return
	}
	kept := s.entries[:1]
	last := s.entries[0].Arrival
	for _, e := range s.entries[1:] {
		if e.Arrival-last > s.tg {
			kept = append(kept, e)
			last = e.Arrival
		}
	}
	s.entries = kept
}

// AtDecision adapts Tg at a checkpoint-decision point: halve it when the
// buffer is more than half empty (finer future grouping), leave it
// otherwise. (Doubling happens eagerly on overflow in Observe.) It returns
// the samples available for JD/DI computation.
func (s *Sampler) AtDecision() []Entry {
	// Compare in floats: integer capacity/2 truncates to 0 at capacity 1,
	// which would disable halving and let Tg ratchet upward forever.
	if s.adaptive && float64(len(s.entries)) < float64(s.capacity)/2 {
		s.tg /= 2
		if s.tg < 1e-9 {
			s.tg = 1e-9
		}
	}
	return s.entries
}

// Reset clears the buffer for a new checkpoint interval, retaining the
// learned Tg.
func (s *Sampler) Reset() {
	s.entries = s.entries[:0]
}
