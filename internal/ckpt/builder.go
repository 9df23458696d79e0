package ckpt

import (
	"fmt"
	"slices"

	"aic/internal/delta"
	"aic/internal/memsim"
)

// Builder produces the checkpoint sequence of one process. It remembers the
// page contents saved in the previous checkpoint so that (a) hot pages can
// be delta-compressed against their old versions and (b) the AIC predictor
// can compute Jaccard distances against those versions.
type Builder struct {
	pageSize    int
	blockSize   int
	cpuState    int
	cpuBytes    []byte // caller-provided CPU state (overrides the synthetic blob)
	seq         int
	parallelism int               // delta-encode workers: ≤ 0 = GOMAXPROCS, 1 = serial
	prevPages   map[uint64][]byte // pages stored in the previous checkpoint
	prevMapped  map[uint64]bool   // full mapped set at the previous checkpoint
	spare       [][]byte          // prevPages buffers finish refills
}

// Option configures a Builder at construction.
type Option func(*Builder)

// WithParallelism sets the number of workers DeltaCheckpoint's page-aligned
// encoder fans pages across, and every frame's CRC-32C trailer is computed
// on (par.Workers): n ≤ 0, the default, selects GOMAXPROCS — the paper's
// model of compression saturating the node's spare cores — and 1 forces
// the serial path. Both paths emit byte-identical streams.
func WithParallelism(n int) Option {
	return func(b *Builder) { b.parallelism = n }
}

// NewBuilder creates a builder. blockSize ≤ 0 selects the codec default;
// cpuStateBytes sets the size of the synthetic CPU-state blob (the paper's
// uncompressed minor fraction).
func NewBuilder(pageSize, blockSize, cpuStateBytes int, opts ...Option) *Builder {
	if pageSize <= 0 {
		pageSize = memsim.PageSize
	}
	if cpuStateBytes < 0 {
		cpuStateBytes = 0
	}
	b := &Builder{
		pageSize:   pageSize,
		blockSize:  blockSize,
		cpuState:   cpuStateBytes,
		prevPages:  make(map[uint64][]byte),
		prevMapped: make(map[uint64]bool),
	}
	for _, opt := range opts {
		opt(b)
	}
	return b
}

// Seq returns the sequence number the next checkpoint will carry.
func (b *Builder) Seq() int { return b.seq }

// PrevPage returns the page's content as of the previous checkpoint, or nil
// when the page was not part of it. Hot-page classification and JD
// computation both use this. The slice is valid until the next checkpoint,
// which refills the buffer with another page.
func (b *Builder) PrevPage(idx uint64) []byte { return b.prevPages[idx] }

// IsHot reports whether a currently-dirty page was also modified during the
// previous checkpoint interval (the paper's hot-page definition).
func (b *Builder) IsHot(idx uint64) bool {
	_, ok := b.prevPages[idx]
	return ok
}

// SetCPUState supplies the CPU-state blob (registers / execution state) the
// next checkpoints will carry, replacing the synthetic placeholder. The
// fault-injection simulator stores the program generator's execution state
// here so a restore resumes the identical write stream.
func (b *Builder) SetCPUState(blob []byte) {
	b.cpuBytes = append(b.cpuBytes[:0], blob...)
}

func (b *Builder) cpuBlob() []byte {
	if b.cpuBytes != nil {
		return append([]byte(nil), b.cpuBytes...)
	}
	blob := make([]byte, b.cpuState)
	for i := range blob {
		blob[i] = byte(i*131 + b.seq)
	}
	return blob
}

// finish records what checkpoint c saved for the next one: the saved
// pages' contents, copied into the previous checkpoint's buffers, and the
// mapped set, updated by c's freed and saved pages — every page mapped since
// the previous checkpoint was written, so it is among the saved ones. A
// full checkpoint saves the whole mapped set.
func (b *Builder) finish(as *memsim.AddressSpace, c *Checkpoint, saved []uint64) {
	for _, buf := range b.prevPages {
		b.spare = append(b.spare, buf)
	}
	clear(b.prevPages)
	for _, idx := range saved {
		var buf []byte
		if n := len(b.spare); n > 0 {
			buf, b.spare = b.spare[n-1][:0], b.spare[:n-1]
		}
		b.prevPages[idx] = append(buf, as.Page(idx)...)
	}
	clear(b.spare) // buffers this checkpoint did not need go to the collector
	b.spare = b.spare[:0]
	if c.Kind == Full {
		clear(b.prevMapped)
	}
	for _, idx := range c.Freed {
		delete(b.prevMapped, idx)
	}
	for _, idx := range saved {
		b.prevMapped[idx] = true
	}
	b.seq++
	as.ResetDirty()
}

// freedSince lists, in ascending order, the pages mapped at the previous
// checkpoint and unmapped since.
func (b *Builder) freedSince(as *memsim.AddressSpace) []uint64 {
	var freed []uint64
	for idx := range b.prevMapped {
		if !as.Mapped(idx) {
			freed = append(freed, idx)
		}
	}
	slices.Sort(freed)
	return freed
}

// FullCheckpoint captures every mapped page raw. The very first checkpoint
// of a process is always full.
func (b *Builder) FullCheckpoint(as *memsim.AddressSpace) *Checkpoint {
	idxs := as.MappedPages()
	c := &Checkpoint{
		Seq:      b.seq,
		Kind:     Full,
		PageSize: b.pageSize,
		CPUState: b.cpuBlob(),
	}
	c.rawPagesFrame(as, idxs, b.parallelism)
	b.finish(as, c, idxs)
	return c
}

// IncrementalCheckpoint captures the dirty pages raw (no compression) —
// what SIC/AIC write to the local disk before the checkpointing core
// compresses them.
func (b *Builder) IncrementalCheckpoint(as *memsim.AddressSpace) *Checkpoint {
	idxs := as.DirtyPages()
	c := &Checkpoint{
		Seq:      b.seq,
		Kind:     Incremental,
		PageSize: b.pageSize,
		CPUState: b.cpuBlob(),
		Freed:    b.freedSince(as),
	}
	c.rawPagesFrame(as, idxs, b.parallelism)
	b.finish(as, c, idxs)
	return c
}

// DeltaCheckpoint captures the dirty pages with page-aligned delta
// compression: hot pages are differenced against their previous versions,
// the rest stored raw. It also returns the compression statistics the AIC
// predictor feeds on.
func (b *Builder) DeltaCheckpoint(as *memsim.AddressSpace) (*Checkpoint, delta.Stats) {
	idxs := as.DirtyPages()
	updates := make([]delta.PageUpdate, 0, len(idxs))
	for _, idx := range idxs {
		updates = append(updates, delta.PageUpdate{
			Index: idx,
			Old:   b.prevPages[idx], // nil when not hot → raw
			New:   as.Page(idx),
		})
	}
	c := &Checkpoint{
		Seq:      b.seq,
		Kind:     IncrementalDelta,
		PageSize: b.pageSize,
		CPUState: b.cpuBlob(),
		Freed:    b.freedSince(as),
	}
	header := func(n int) []byte { return c.appendHeader(nil, n) }
	frame, st := delta.EncodePageAlignedInto(updates, b.blockSize, b.parallelism, header, 4)
	c.seal(frame, st.OutputBytes, b.parallelism)
	b.finish(as, c, idxs)
	return c, st
}

// XORCheckpoint is the simple-compressor ablation of DeltaCheckpoint: hot
// pages are XOR+RLE-coded against their previous versions rather than
// rsync-delta-coded.
func (b *Builder) XORCheckpoint(as *memsim.AddressSpace) (*Checkpoint, delta.Stats) {
	idxs := as.DirtyPages()
	updates := make([]delta.PageUpdate, 0, len(idxs))
	st := delta.Stats{}
	for _, idx := range idxs {
		u := delta.PageUpdate{Index: idx, Old: b.prevPages[idx], New: as.Page(idx)}
		updates = append(updates, u)
		st.InputBytes += len(u.New)
		if u.Old != nil {
			st.HotPages++
		} else {
			st.RawPages++
		}
	}
	payload := delta.EncodePageAlignedXOR(updates)
	st.OutputBytes = len(payload)
	c := &Checkpoint{
		Seq:      b.seq,
		Kind:     IncrementalDelta,
		PageSize: b.pageSize,
		CPUState: b.cpuBlob(),
		Freed:    b.freedSince(as),
		Payload:  payload,
	}
	b.finish(as, c, idxs)
	return c, st
}

// ElementError reports the chain element a restore failed to replay, so a
// caller can rewind to the prefix before it. Err wraps the cause, which is
// ErrBadCheckpoint for a payload that decodes but is not a valid page set.
type ElementError struct {
	Elem int // index into the restored chain
	Err  error
}

func (e *ElementError) Error() string {
	return fmt.Sprintf("ckpt: chain element %d: %v", e.Elem, e.Err)
}

func (e *ElementError) Unwrap() error { return e.Err }

// Restore replays a checkpoint chain — one full checkpoint followed by its
// incrementals in sequence order — into a fresh address space. The chain's
// page size, its full checkpoint's, must lie in 1 B to maxPageSize, and
// every page an element carries must decode to exactly that size; an
// element that fails to replay, an anchor of a bad page size included, is
// reported as an *ElementError.
//
// The replay writes every page into a buffer from its one pagePool and
// installs it by ownership once the whole element has decoded, so the
// image shares no bytes with the chain and a replayed step costs decode
// work, not an allocation per page.
func Restore(chain []*Checkpoint) (*memsim.AddressSpace, error) {
	if len(chain) == 0 {
		return nil, fmt.Errorf("ckpt: empty restore chain")
	}
	if chain[0].Kind != Full {
		return nil, fmt.Errorf("ckpt: restore chain must begin with a full checkpoint, got %v", chain[0].Kind)
	}
	if ps := chain[0].PageSize; !pageSizeValid(Full, uint64(ps)) { // a negative size wraps past the bound
		return nil, &ElementError{Elem: 0, Err: fmt.Errorf("%w: page size %d", ErrBadCheckpoint, ps)}
	}
	as := memsim.New(chain[0].PageSize)
	pool := &pagePool{as: as}
	for i, c := range chain {
		if i > 0 {
			if c.Kind == Full {
				return nil, fmt.Errorf("ckpt: unexpected full checkpoint mid-chain at %d", i)
			}
			if c.Seq != chain[i-1].Seq+1 {
				return nil, fmt.Errorf("ckpt: chain gap: seq %d follows %d", c.Seq, chain[i-1].Seq)
			}
		}
		if c.PageSize != as.PageSize() {
			return nil, &ElementError{Elem: i, Err: fmt.Errorf("%w: page size %d in a chain of %d", ErrBadCheckpoint, c.PageSize, as.PageSize())}
		}
		if err := pool.replay(c); err != nil {
			return nil, &ElementError{Elem: i, Err: err}
		}
	}
	as.ResetDirty()
	return as, nil
}

// pagePool is a replay's page supply. A page an element displaces — by
// installing over it, or by naming it in Freed — is unmapped, so nothing
// reads it any more: it joins the free list and a later element decodes
// into it. When an element needs more pages than the list holds, the
// shortfall comes from one slab, so the anchor is one allocation. A slab
// stays reachable while any of its pages is mapped.
type pagePool struct {
	as   *memsim.AddressSpace
	free [][]byte
}

// take returns n page buffers, recycled ones first.
func (p *pagePool) take(n int) [][]byte {
	bufs := make([][]byte, n)
	k := copy(bufs, p.free[max(0, len(p.free)-n):])
	p.free = p.free[:len(p.free)-k]
	if short := n - k; short > 0 {
		ps := p.as.PageSize()
		slab := make([]byte, short*ps)
		for i := range short {
			bufs[k+i] = slab[i*ps : (i+1)*ps : (i+1)*ps]
		}
	}
	return bufs
}

// recycle puts the buffer of the page mapped at idx, if any, on the free
// list; the caller replaces or unmaps that page next.
func (p *pagePool) recycle(idx uint64) {
	if page := p.as.Page(idx); page != nil {
		p.free = append(p.free, page)
	}
}

// replay decodes element c into pool buffers — a raw page copied, a delta
// or XOR page decoded against the image so far, whose page fetches are pure
// reads, so the payload decodes on all cores — then installs every page,
// recycling the ones it displaces, and unmaps c's freed pages, recycling
// them too.
func (p *pagePool) replay(c *Checkpoint) error {
	var pages []delta.Page
	var err error
	r := c.payload()
	switch c.Kind {
	case Full, Incremental:
		if pages, err = rawPages(&r, p.as.PageSize()); err == nil {
			for i, buf := range p.take(len(pages)) {
				pages[i].Data = append(buf[:0], pages[i].Data...)
			}
		}
	case IncrementalDelta:
		pages, err = delta.DecodePiecesInto(&r, p.as.Page, 0, p.take)
	default:
		err = fmt.Errorf("%w: kind %v", ErrBadCheckpoint, c.Kind)
	}
	if err != nil {
		return err
	}
	for _, pg := range pages {
		if len(pg.Data) != p.as.PageSize() {
			return fmt.Errorf("%w: page %d decodes to %d bytes, page size %d", ErrBadCheckpoint, pg.Index, len(pg.Data), p.as.PageSize())
		}
		p.recycle(pg.Index)
		p.as.Install(pg.Index, pg.Data, 0)
	}
	for _, idx := range c.Freed {
		p.recycle(idx)
		p.as.Free(idx)
	}
	return nil
}
