package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentile is the nearest-rank q-quantile of xs (0 for none).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// covered is the length of the union of the spans' intervals, clipped to
// [lo, hi].
func covered(spans []*span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = lo
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return total
}

// opTree is one op's spans with parents assigned.
type opTree struct {
	rec   opRec
	root  *span
	spans []*span
	kids  map[int][]*span
}

// self is the part of s its children do not cover.
func (t *opTree) self(s *span) int64 {
	return s.dur() - covered(t.kids[s.ID], s.Start, s.End)
}

// pick returns the op's spans that match.
func (t *opTree) pick(match func(*span) bool) []*span {
	var out []*span
	for _, s := range t.spans {
		if match(s) {
			out = append(out, s)
		}
	}
	return out
}

// buildTrees attaches every span to its parent: the innermost span of a
// lower level, on the same store or on none, that contains it. Peer-side
// spans so hang under the client span that caused them (one call is in
// flight per peer at a time; the keys are cross-checked), and filesystem
// spans under their store's call.
func buildTrees(spans []span, ops []opRec) ([]*opTree, error) {
	byOp := make(map[int]*opTree, len(ops))
	trees := make([]*opTree, 0, len(ops))
	for _, rec := range ops {
		t := &opTree{rec: rec, kids: make(map[int][]*span)}
		byOp[rec.id] = t
		trees = append(trees, t)
	}
	for i := range spans {
		s := &spans[i]
		t := byOp[s.Op]
		if t == nil {
			return nil, fmt.Errorf("trace: span %d belongs to unknown op %d", s.ID, s.Op)
		}
		t.spans = append(t.spans, s)
		if s.Level == levelOp {
			t.root = s
		}
	}
	for _, t := range trees {
		if t.root == nil {
			return nil, fmt.Errorf("trace: op %d has no root span", t.rec.id)
		}
		for _, s := range t.spans {
			if s == t.root {
				continue
			}
			var parent *span
			for _, c := range t.spans {
				if c.Level >= s.Level || (c.Store != "" && c.Store != s.Store) ||
					c.Start > s.Start || c.End < s.End {
					continue
				}
				if parent == nil || c.Level > parent.Level || (c.Level == parent.Level && c.Start > parent.Start) {
					parent = c
				}
			}
			if parent == nil {
				return nil, fmt.Errorf("trace: span %d (%s %s) lies outside op %d", s.ID, s.Layer, s.Name, s.Op)
			}
			if s.Level == levelPeer && parent.Level == levelClient && s.Key != "" && s.Key != parent.Key {
				return nil, fmt.Errorf("trace: peer span %d on key %q attached under client span on %q", s.ID, s.Key, parent.Key)
			}
			s.Parent = parent.ID
			t.kids[parent.ID] = append(t.kids[parent.ID], s)
		}
	}
	return trees, nil
}

func is(level int, layer, name string) func(*span) bool {
	return func(s *span) bool { return s.Level == level && s.Layer == layer && s.Name == name }
}

// storeCall matches the directory store's own span of one call: the
// peer-side span behind a remote call, or the facade's call on a local store.
func storeCall(name string) func(*span) bool {
	return func(s *span) bool {
		return s.Layer == "storage" && s.Name == name && (s.Level == levelPeer || s.Level == levelClient)
	}
}

// nsMs is a span length in milliseconds.
func nsMs(ns int64) float64 { return ms(time.Duration(ns)) }

func durs(spans []*span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = nsMs(s.dur())
	}
	return out
}

// layerMetrics turns the traced pass into every per-layer metric.
// baselineP50 is the untraced ckpt_ack_p50_ms the tracing overhead is
// measured against. The second result lists reconciliation failures.
func layerMetrics(w workload, out *outcome, trees []*opTree, baselineP50 float64) (map[string]float64, []string) {
	m := make(map[string]float64, len(perLayer))
	var problems []string
	d := &out.direct

	var (
		ackMs, retireMs, fanoutSelf, overlap, unattrCkpt, unattrRestore []float64
		encodeMs, remotePut, wireSelf, storePut, hitPut, missPut        []float64
		remoteGet, getWireSelf, storeGet, fetchMs, mergeSelf            []float64
		wireBytes, wireSelfNs, ackedBytes                               int64
		syncs, syncNs, writes, writeBytes, renames                      int64
		manifestBytes, indexBytes, compactBytes                         int64
		reads, readBytes, fetchedBytes                                  int64
		restores                                                        int
	)
	for _, t := range trees {
		nonRoot := t.pick(func(s *span) bool { return s != t.root })
		unattr := nsMs(t.root.dur() - covered(nonRoot, t.root.Start, t.root.End))
		fsSpans := t.pick(func(s *span) bool { return s.Level == levelFS })
		switch t.rec.kind {
		case "ckpt", "retire":
			for _, s := range fsSpans {
				switch s.Name {
				case "fs.sync":
					syncs++
					syncNs += s.dur()
				case "fs.rename":
					renames++
				case "fs.write":
					writes++
					writeBytes += s.Bytes
					switch s.Key {
					case "manifest":
						manifestBytes += s.Bytes
					case "chunk_index":
						indexBytes += s.Bytes
					}
					if t.rec.kind == "retire" {
						compactBytes += s.Bytes
					}
				}
			}
			for _, s := range t.pick(is(levelCall, "facade", "store")) {
				ackedBytes += s.Bytes
			}
		}
		switch t.rec.kind {
		case "ckpt":
			ackMs = append(ackMs, ms(t.rec.wall))
			unattrCkpt = append(unattrCkpt, unattr)
			encodeMs = append(encodeMs, durs(t.pick(is(levelCall, "ckpt", "encode")))...)
			var self, sum, union int64
			for _, call := range t.pick(is(levelCall, "facade", "store")) {
				self += t.self(call)
				kids := t.kids[call.ID]
				for _, k := range kids {
					sum += k.dur()
				}
				union += covered(kids, call.Start, call.End)
			}
			fanoutSelf = append(fanoutSelf, nsMs(self))
			overlap = append(overlap, ratio(float64(sum), float64(union)))
			for _, s := range t.pick(is(levelClient, "remote", "put")) {
				remotePut = append(remotePut, nsMs(s.dur()))
				wireSelf = append(wireSelf, nsMs(t.self(s)))
				wireBytes += s.Bytes
				wireSelfNs += t.self(s)
			}
			for _, s := range t.pick(storeCall("put")) {
				storePut = append(storePut, nsMs(s.dur()))
				if !w.ring {
					if s.Key == rankName(0) {
						missPut = append(missPut, nsMs(s.dur()))
					} else {
						hitPut = append(hitPut, nsMs(s.dur()))
					}
				}
			}
		case "retire":
			retireMs = append(retireMs, ms(t.rec.wall))
		case "restore":
			unattrRestore = append(unattrRestore, unattr)
			for _, s := range t.pick(is(levelClient, "remote", "get")) {
				remoteGet = append(remoteGet, nsMs(s.dur()))
				getWireSelf = append(getWireSelf, nsMs(t.self(s)))
			}
			storeGet = append(storeGet, durs(t.pick(storeCall("get")))...)
			gets := t.pick(func(s *span) bool { return s.Level == levelClient && s.Name == "get" })
			for _, s := range gets {
				fetchedBytes += s.Bytes
			}
			fetch := covered(gets, t.root.Start, t.root.End)
			fetchMs = append(fetchMs, nsMs(fetch))
			for _, s := range fsSpans {
				if s.Name == "fs.read" {
					reads++
					readBytes += s.Bytes
				}
			}
			if restores < len(d.replayMs) {
				call := t.pick(is(levelCall, "facade", "restore"))
				if len(call) == 1 {
					mergeSelf = append(mergeSelf, nsMs(call[0].dur()-fetch)-d.replayMs[restores]-d.reassembleMs[restores])
				}
			}
			restores++
		}
	}

	var acked int
	for _, rs := range out.rounds {
		acked += rs.acked
	}
	ckpts := float64(acked)
	ackP50 := median(ackMs)

	m["facade.ckpt_ack_p99_ms"] = percentile(ackMs, 0.99)
	if w.ring {
		m["facade.full_ack_p50_ms"] = median(retireMs)
	}
	m["facade.fanout_self_ms"] = median(fanoutSelf)
	m["facade.fanout_overlap"] = median(overlap)
	m["facade.unattributed_ms"] = median(unattrCkpt)
	m["facade.trace_overhead_pct"] = 100 * ratio(ackP50-baselineP50, baselineP50)
	m["facade.degraded_acks"] = float64(out.degraded)

	m["ckpt.encode_ms"] = median(encodeMs)
	m["ckpt.frame_self_ms"] = median(encodeMs) - median(d.deltaEncodeMs)
	m["ckpt.bytes_per_ckpt"] = ratio(float64(out.encodedBytes), float64(out.deltaCkpts))
	m["ckpt.decode_ms"] = median(d.ckptDecodeMs)
	m["ckpt.stripe_split_ms"] = median(d.splitMs)
	m["ckpt.stripe_reassemble_ms"] = median(d.reassembleMs)

	m["delta.encode_ms"] = median(d.deltaEncodeMs)
	m["delta.encode_mibps"] = ratio(float64(d.deltaEncodeBytes)/(1<<20), d.deltaEncodeSec)
	m["delta.decode_ms"] = median(d.deltaDecodeMs)
	m["delta.ratio"] = ratio(float64(out.encodedBytes), float64(out.inputBytes))
	m["delta.hot_page_share"] = ratio(float64(out.hotPagesCoded), float64(out.hotPagesCoded+out.rawPagesStored))
	m["delta.chunk_mibps"] = ratio(float64(d.chunkBytes)/(1<<20), d.chunkSec)

	m["storage.put_ms"] = median(storePut)
	m["storage.get_ms"] = median(storeGet)
	m["storage.fsyncs_per_ckpt"] = ratio(float64(syncs), ckpts)
	m["storage.flush_wait_ms_per_ckpt"] = ratio(nsMs(syncNs), ckpts)
	m["storage.files_written_per_ckpt"] = ratio(float64(writes), ckpts)
	m["storage.renames_per_ckpt"] = ratio(float64(renames), ckpts)
	m["storage.write_amp"] = ratio(float64(writeBytes), float64(ackedBytes))
	m["storage.manifest_bytes_per_ckpt"] = ratio(float64(manifestBytes), ckpts)
	m["storage.chunk_index_bytes_per_ckpt"] = ratio(float64(indexBytes), ckpts)
	m["storage.dedup_ratio"] = out.dedupRatio
	m["storage.dedup_hit_put_ms"] = median(hitPut)
	m["storage.dedup_miss_put_ms"] = median(missPut)
	m["storage.reads_per_restore"] = ratio(float64(reads), float64(restores))
	m["storage.read_bytes_per_restore"] = ratio(float64(readBytes), float64(restores))

	m["remote.put_ms"] = median(remotePut)
	m["remote.wire_self_ms"] = median(wireSelf)
	m["remote.wire_mibps"] = ratio(float64(wireBytes)/(1<<20), float64(wireSelfNs)/1e9)
	m["remote.get_ms"] = median(remoteGet)
	m["remote.get_wire_self_ms"] = median(getWireSelf)
	m["remote.retries"] = out.remote["aic_remote_retries_total"]
	m["remote.window_stalls"] = out.remote["aic_remote_window_stall_total"]

	m["ring.place_us"] = d.placeUs
	m["ring.replica_spread"] = d.replicaSpread

	var replayed int64
	for _, b := range d.replayedBytes {
		replayed += b
	}
	m["recovery.fetch_ms"] = median(fetchMs)
	m["recovery.replay_ms"] = median(d.replayMs)
	m["recovery.merge_self_ms"] = median(mergeSelf)
	m["recovery.bytes_fetched_per_restore"] = ratio(float64(fetchedBytes), float64(restores))
	m["recovery.fetch_amp"] = ratio(float64(fetchedBytes), float64(replayed))

	if !w.ring {
		m["compact.pass_ms"] = median(retireMs)
		m["compact.bytes_rewritten_per_pass"] = ratio(float64(compactBytes), float64(out.retires))
		m["compact.elems_dropped"] = float64(out.elemsDropped)
	}
	for _, def := range perLayer {
		if _, ok := m[def.name]; !ok {
			m[def.name] = 0 // the layer is not on this workload's path
		}
	}

	// Reconciliation: wall time inside an op that no layer's span explains
	// is a finding, not noise to be averaged away.
	restoreP50 := median(out.restoreMs)
	if u := median(unattrCkpt); u > 0.05*ackP50 {
		problems = append(problems, fmt.Sprintf("checkpoint ops: %.3f ms of %.3f ms unattributed", u, ackP50))
	}
	if u := median(unattrRestore); u > 0.05*restoreP50 {
		problems = append(problems, fmt.Sprintf("restore ops: %.3f ms of %.3f ms unattributed", u, restoreP50))
	}
	if m["remote.retries"] != 0 {
		problems = append(problems, fmt.Sprintf("%v remote retries", m["remote.retries"]))
	}
	problems = append(problems, d.errs...)
	return m, problems
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
