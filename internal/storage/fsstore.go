package storage

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// FSStore is a file-backed checkpoint store: each checkpoint becomes one
// file under root/<proc>/ with a JSON manifest tracking the chain, so
// checkpoint data survives the simulating process itself. It satisfies the
// Store contract (the in-memory stores remain the default for simulation;
// FSStore backs the Process facade when durability is wanted, and the aicd
// replication daemon when a peer serves its store over the network).
//
// Every mutation follows the durable-write protocol (write temp, fsync,
// rename, fsync directory) and orders the data file strictly before the
// manifest, so a crash anywhere inside Put leaves one of exactly two
// states: the old manifest with at worst an orphaned data file or temp
// (cleaned by Scrub), or the new manifest with its data file fully durable.
// The manifest never references bytes that are not safely on disk.
//
// Concurrent Puts to the same process group-commit: each caller enqueues its
// checkpoint and one caller at a time becomes that process's commit leader,
// draining the queue and committing the whole batch with a single directory
// fsync for the staged data files and a single manifest write. That amortizes
// the fsync-per-Put cost across same-chain writers without weakening the
// guarantee — a Put only returns nil after the manifest referencing its data
// is durable, and a batch of one produces exactly the op sequence of a solo
// Put, so every crash window of the serial protocol exists unchanged.
// Different processes share nothing on disk (disjoint directories and
// manifests), so their commits proceed in parallel.
type FSStore struct {
	root   string
	target Target
	fsys   FS

	// met is nil until SetMetrics instruments the store; every observation
	// is nil-safe, so the uninstrumented hot path pays one branch.
	met *fsMetrics

	// dedup is nil until EnableDedup turns on chunk-level content-addressed
	// storage (see dedup.go). Reads resolve recipe files regardless — only
	// the write path consults this.
	dedup *chunkIndex

	mu    sync.Mutex // guards procs only; never held across I/O
	procs map[string]*procState
}

// procState is the group-commit machinery for one process's chain. States are
// created on demand and never removed — a deleted chain keeps its (empty)
// state so a later re-append reuses the same token.
type procState struct {
	mu    sync.Mutex // guards queue only; never held across I/O
	queue []*putReq

	// tok is a capacity-1 token serializing every mutation of this
	// process's chain. The Put that acquires it is the commit leader for
	// whatever requests are queued at that moment; Truncate, Delete and
	// Scrub take the same token so repairs never interleave with a batch
	// commit.
	tok chan struct{}

	// encBuf is the manifest JSON encode scratch, reused across commits.
	// Only touched with tok held.
	encBuf bytes.Buffer
}

// putReq is one queued checkpoint append awaiting a group commit. done is
// buffered and receives exactly one result from whichever leader claims the
// request.
type putReq struct {
	proc string
	seq  int
	data []byte
	done chan error
}

// manifest records one process's chain on disk.
type manifest struct {
	Proc  string         `json:"proc"`
	Seqs  []int          `json:"seqs"`
	Sizes map[string]int `json:"sizes"`
}

// NewFSStore opens (creating if needed) a file-backed store rooted at dir.
func NewFSStore(dir string, target Target) (*FSStore, error) {
	return NewFSStoreFS(dir, target, OSFS{})
}

// NewFSStoreFS opens a store over an explicit FS implementation — the hook
// the fault-injection crash tests use to interpose FaultFS.
func NewFSStoreFS(dir string, target Target, fsys FS) (*FSStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("storage: empty FSStore root")
	}
	if fsys == nil {
		fsys = OSFS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return &FSStore{
		root:   dir,
		target: target,
		fsys:   fsys,
		procs:  make(map[string]*procState),
	}, nil
}

// state returns (creating if needed) the commit state for proc.
func (fs *FSStore) state(proc string) *procState {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st := fs.procs[proc]
	if st == nil {
		st = &procState{tok: make(chan struct{}, 1)}
		fs.procs[proc] = st
	}
	return st
}

// lockProc acquires proc's mutation token, serializing the caller with any
// in-flight group commit on that chain. ctx cancellation aborts the wait.
func (fs *FSStore) lockProc(ctx context.Context, proc string) (*procState, error) {
	st := fs.state(proc)
	select {
	case st.tok <- struct{}{}:
		return st, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (st *procState) unlock() { <-st.tok }

// Target returns the store's bandwidth model.
func (fs *FSStore) Target() Target { return fs.target }

// ProcDirName maps a proc name to its on-disk directory name, case-fold
// escaped: uppercase letters become "!"+lowercase and a literal "!"
// doubles, the Go module cache's encoding. ValidateProcName accepts names
// differing only by letter case ("Web" vs "web"), and on a
// case-insensitive filesystem (macOS, Windows) verbatim directories would
// silently merge those two chains — interleaved manifests, cross-chain
// stale-seq failures, data loss on Delete. Escaping is deterministic and
// invertible, so distinct names get distinct directories everywhere and
// List still round-trips the original spelling.
func ProcDirName(proc string) string {
	esc := proc
	for i := 0; i < len(esc); i++ {
		c := esc[i]
		if c == '!' || ('A' <= c && c <= 'Z') {
			return escapeSlow(proc)
		}
	}
	return esc
}

// escapeSlow is ProcDirName's allocation path, taken only when the name
// actually contains an uppercase letter or "!".
func escapeSlow(proc string) string {
	buf := make([]byte, 0, len(proc)+4)
	for i := 0; i < len(proc); i++ {
		switch c := proc[i]; {
		case c == '!':
			buf = append(buf, '!', '!')
		case 'A' <= c && c <= 'Z':
			buf = append(buf, '!', c+('a'-'A'))
		default:
			buf = append(buf, c)
		}
	}
	return string(buf)
}

// unescapeProcDir inverts ProcDirName. ok is false for directory names no
// proc name escapes to (a bare trailing "!", "!" before anything but a
// lowercase letter, or an unescaped uppercase letter), which List uses to
// skip foreign directories instead of inventing names Get would reject.
func unescapeProcDir(dir string) (string, bool) {
	esc := false
	for i := 0; i < len(dir); i++ {
		if c := dir[i]; c == '!' || ('A' <= c && c <= 'Z') {
			esc = true
			break
		}
	}
	if !esc {
		return dir, true
	}
	buf := make([]byte, 0, len(dir))
	for i := 0; i < len(dir); i++ {
		c := dir[i]
		if 'A' <= c && c <= 'Z' {
			return "", false // escaped dirs are all-lowercase by construction
		}
		if c != '!' {
			buf = append(buf, c)
			continue
		}
		i++
		if i == len(dir) {
			return "", false
		}
		switch c = dir[i]; {
		case c == '!':
			buf = append(buf, '!')
		case 'a' <= c && c <= 'z':
			buf = append(buf, c-('a'-'A'))
		default:
			return "", false
		}
	}
	return string(buf), true
}

// procDir maps proc to its chain directory. Every proc-addressed entry
// point validates with ValidateProcName first, which is what keeps
// "../evil" or "a/b" from escaping the root; ProcDirName's case-fold
// escaping keeps two names that differ only by case from colliding on one
// directory on case-insensitive filesystems.
func (fs *FSStore) procDir(proc string) string {
	return filepath.Join(fs.root, ProcDirName(proc))
}

func (fs *FSStore) manifestPath(proc string) string {
	return filepath.Join(fs.procDir(proc), "manifest.json")
}

func (fs *FSStore) loadManifest(proc string) (*manifest, error) {
	data, err := fs.fsys.ReadFile(fs.manifestPath(proc))
	if os.IsNotExist(err) {
		return &manifest{Proc: proc, Sizes: map[string]int{}}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("storage: corrupt manifest for %s: %w", proc, err)
	}
	if m.Sizes == nil {
		m.Sizes = map[string]int{}
	}
	return &m, nil
}

// saveManifest durably writes proc's manifest. Callers must hold proc's
// mutation token: the encode buffer is per-chain scratch, reused so the
// manifest rewrite on every commit stops costing an allocation per Put.
func (fs *FSStore) saveManifest(st *procState, proc string, m *manifest) error {
	st.encBuf.Reset()
	enc := json.NewEncoder(&st.encBuf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return err
	}
	return atomicWrite(fs.fsys, fs.manifestPath(proc), st.encBuf.Bytes(), 0o644)
}

func ckptFile(seq int) string { return fmt.Sprintf("ckpt-%08d.aic", seq) }

// List returns the process names with chains in the store, sorted. Names
// round-trip exactly: directory names are ProcDirName escapings, inverted
// here, so a stored name comes back with its original spelling. Foreign
// directories that no proc name maps to are skipped.
func (fs *FSStore) List(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	entries, err := fs.fsys.ReadDir(fs.root)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	var procs []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if proc, ok := unescapeProcDir(e.Name()); ok {
			procs = append(procs, proc)
		}
	}
	sort.Strings(procs)
	return procs, nil
}

// Put appends a checkpoint for proc. Sequence numbers must be strictly
// increasing. The checkpoint is durable — data file fsynced, rename pinned
// by a directory fsync, manifest updated with the same discipline — before
// Put returns nil. Concurrent Puts to the same process coalesce into one
// group commit; the caller's result always reflects its own request's fate,
// never a batchmate's.
func (fs *FSStore) Put(ctx context.Context, proc string, seq int, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := ValidateProcName(proc); err != nil {
		return err
	}
	var t0 time.Time
	if fs.met != nil {
		t0 = time.Now()
	}
	st := fs.state(proc)
	req := &putReq{proc: proc, seq: seq, data: data, done: make(chan error, 1)}
	st.mu.Lock()
	st.queue = append(st.queue, req)
	st.mu.Unlock()
	if fs.met != nil {
		fs.met.queueDepth.Inc()
	}
	err := fs.awaitCommit(ctx, st, proc, req)
	if fs.met != nil {
		fs.met.putDur.Observe(time.Since(t0).Seconds())
	}
	return err
}

// awaitCommit drives a queued request to its result: the caller either
// hears its outcome from a commit leader, volunteers as the leader itself,
// or cancels. Cancellation semantics are exact — a cancelled Put is
// withdrawn iff no leader has claimed its request yet; once a leader holds
// it the commit is in flight and its real outcome (possibly a durable
// success) is what the caller hears. The explicit ctx.Err probe at the top
// of each spin keeps an already-cancelled Put from volunteering as leader
// through the select's random case choice and committing work its caller
// revoked.
func (fs *FSStore) awaitCommit(ctx context.Context, st *procState, proc string, req *putReq) error {
	for {
		select {
		case err := <-req.done:
			return err
		default:
		}
		if ctx.Err() != nil {
			return fs.withdraw(st, req, ctx.Err())
		}
		select {
		case err := <-req.done:
			return err
		case st.tok <- struct{}{}:
			// We are the leader: commit everything queued for this chain
			// (including, in the common case, our own request) and re-check
			// at the top of the loop.
			fs.drainAndCommit(st, proc)
			<-st.tok
		case <-ctx.Done():
			return fs.withdraw(st, req, ctx.Err())
		}
	}
}

// withdraw resolves a cancelled Put: if req is still in the unclaimed
// queue no leader owns it, so it is removed and the cancellation cause
// returned; if a leader has already claimed it the commit's genuine result
// is awaited. The queue scan and a leader's claim (drainAndCommit) both
// hold st.mu, so exactly one of the two sides wins.
func (fs *FSStore) withdraw(st *procState, req *putReq, cause error) error {
	st.mu.Lock()
	for i, q := range st.queue {
		if q == req {
			st.queue = append(st.queue[:i], st.queue[i+1:]...)
			st.mu.Unlock()
			if fs.met != nil {
				fs.met.queueDepth.Dec()
			}
			return cause
		}
	}
	st.mu.Unlock()
	return <-req.done
}

// drainAndCommit claims proc's queued requests and commits them as one
// batch. Caller holds proc's commit token. The batch commits in sequence
// order rather than arrival order — concurrent appenders sharing a process
// (seqs handed out by an external counter) may enqueue out of order, and
// sorting keeps the strictly-increasing check about actual staleness instead
// of scheduling luck.
func (fs *FSStore) drainAndCommit(st *procState, proc string) {
	st.mu.Lock()
	batch := st.queue
	st.queue = nil
	st.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	if fs.met != nil {
		fs.met.queueDepth.Add(-float64(len(batch)))
		fs.met.batchSize.Observe(float64(len(batch)))
	}
	sort.SliceStable(batch, func(i, j int) bool { return batch[i].seq < batch[j].seq })
	fs.commitProc(st, proc, batch)
}

// commitProc commits one process's batched appends: stage every data file
// (write temp, fsync, rename), pin all the renames with a single directory
// fsync, then write the manifest once. Ack ordering is the invariant the
// crash tests pin down: no request's done fires nil until the manifest
// referencing its data is durable. A batch of one performs exactly the op
// sequence of the pre-batching serial Put.
func (fs *FSStore) commitProc(st *procState, proc string, reqs []*putReq) {
	fail := func(reqs []*putReq, err error) {
		for _, r := range reqs {
			r.done <- err
		}
	}
	dir := fs.procDir(proc)
	if err := fs.fsys.MkdirAll(dir, 0o755); err != nil {
		fail(reqs, fmt.Errorf("storage: %w", err))
		return
	}
	m, err := fs.loadManifest(proc)
	if err != nil {
		fail(reqs, err)
		return
	}
	last, haveLast := 0, false
	if n := len(m.Seqs); n > 0 {
		last, haveLast = m.Seqs[n-1], true
	}
	var staged []*putReq
	var releases []func() // dedup reference unwinds, aligned with staged
	unwindDedup := func() {
		for _, rel := range releases {
			if rel != nil {
				rel()
			}
		}
	}
	for _, req := range reqs {
		if haveLast && req.seq <= last {
			req.done <- fmt.Errorf("storage: %s: %w: seq %d not after %d", proc, ErrStaleSeq, req.seq, last)
			continue
		}
		// With dedup on, the committed file is a recipe whose chunk bodies
		// (and reference bumps) are made durable first — the manifest never
		// references a recipe whose chunks are not safely on disk.
		fileData, release := req.data, func() {}
		if fs.dedup != nil {
			var err error
			fileData, release, err = fs.dedupEncode(req.data)
			if err != nil {
				req.done <- err
				continue
			}
			if release == nil {
				release = func() {}
			}
		}
		path := filepath.Join(dir, ckptFile(req.seq))
		if err := stageWrite(fs.fsys, path, fileData, 0o644); err != nil {
			release()
			req.done <- err
			continue
		}
		last, haveLast = req.seq, true
		m.Seqs = append(m.Seqs, req.seq)
		m.Sizes[ckptFile(req.seq)] = len(fileData)
		staged = append(staged, req)
		releases = append(releases, release)
		if fs.met != nil {
			fs.met.stagedBytes.Add(float64(len(req.data)))
		}
	}
	if len(staged) == 0 {
		return
	}
	if err := fs.fsys.SyncDir(dir); err != nil {
		// Staged files may or may not have survived; the manifest was not
		// touched, so Scrub discards them as orphans on reopen.
		unwindDedup()
		fail(staged, fmt.Errorf("storage: %w", err))
		return
	}
	if err := fs.saveManifest(st, proc, m); err != nil {
		// Unwind the data files so the manifest and the directory agree:
		// leaving them would leak orphans the Bytes/Truncate accounting
		// never sees. Best effort — after a real crash the removals fail
		// too, and Scrub adopts or discards the orphans on reopen.
		for _, req := range staged {
			_ = fs.fsys.Remove(filepath.Join(dir, ckptFile(req.seq)))
		}
		unwindDedup()
		fail(staged, err)
		return
	}
	for _, req := range staged {
		req.done <- nil
	}
}

// Get returns whatever manifest-listed checkpoints are still readable, in
// sequence order, plus the seqs whose files have gone missing. It never
// fails on a damaged chain element — the last-good-prefix restore decides
// what the gaps cost. It fails only when the manifest itself is unreadable
// (run Scrub first to rebuild it from the surviving files).
func (fs *FSStore) Get(ctx context.Context, proc string) (chain []Stored, missing []int, err error) {
	_, chain, missing, err = fs.read(ctx, proc, func(int) bool { return true })
	return chain, missing, err
}

// GetSeqs implements SeqGetter: one manifest load plus the wanted files.
func (fs *FSStore) GetSeqs(ctx context.Context, proc string, want []int) (listed []int, chain []Stored, missing []int, err error) {
	wanted := wantSet(want)
	return fs.read(ctx, proc, func(seq int) bool { return wanted[seq] })
}

// read lists proc's manifest and reads the listed elements wanted reports,
// in sequence order; an unreadable one is missing.
func (fs *FSStore) read(ctx context.Context, proc string, wanted func(seq int) bool) (listed []int, chain []Stored, missing []int, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	if err := ValidateProcName(proc); err != nil {
		return nil, nil, nil, err
	}
	m, err := fs.loadManifest(proc)
	if err != nil {
		return nil, nil, nil, err
	}
	listed = append([]int(nil), m.Seqs...)
	sort.Ints(listed)
	for _, seq := range listed {
		if !wanted(seq) {
			continue
		}
		if data, ok := fs.readElem(proc, seq); ok {
			chain = append(chain, Stored{Seq: seq, Data: data})
		} else {
			missing = append(missing, seq)
		}
	}
	return listed, chain, missing, nil
}

// readElem reads one manifest-listed element's payload. Recipes resolve back
// to the exact payload bytes; a lost file, or a recipe whose chunks are
// damaged or gone, reports ok=false — what Get classifies as missing.
func (fs *FSStore) readElem(proc string, seq int) ([]byte, bool) {
	data, err := fs.fsys.ReadFile(filepath.Join(fs.procDir(proc), ckptFile(seq)))
	if err != nil {
		return nil, false
	}
	if data, err = fs.resolveData(data); err != nil {
		return nil, false
	}
	return data, true
}

// GetElem returns the single stored element for (proc, seq) — one manifest
// load plus one file read, regardless of chain length. A manifest entry
// whose file is unreadable reports ok=false, matching Get's missing
// classification.
func (fs *FSStore) GetElem(ctx context.Context, proc string, seq int) ([]byte, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if err := ValidateProcName(proc); err != nil {
		return nil, false, err
	}
	m, err := fs.loadManifest(proc)
	if err != nil {
		return nil, false, err
	}
	for _, s := range m.Seqs {
		if s == seq {
			data, ok := fs.readElem(proc, seq)
			return data, ok, nil
		}
	}
	return nil, false, nil
}

// Truncate drops checkpoints older than fullSeq, deleting their files.
func (fs *FSStore) Truncate(ctx context.Context, proc string, fullSeq int) error {
	if err := ValidateProcName(proc); err != nil {
		return err
	}
	st, err := fs.lockProc(ctx, proc)
	if err != nil {
		return err
	}
	defer st.unlock()
	m, err := fs.loadManifest(proc)
	if err != nil {
		return err
	}
	var kept []int
	var dead []recipeRefs
	for _, seq := range m.Seqs {
		if seq >= fullSeq {
			kept = append(kept, seq)
			continue
		}
		if fs.dedup != nil {
			if rr, ok := fs.readRecipeRefs(proc, seq); ok {
				dead = append(dead, rr)
			}
		}
		name := ckptFile(seq)
		if err := fs.fsys.Remove(filepath.Join(fs.procDir(proc), name)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("storage: %w", err)
		}
		delete(m.Sizes, name)
	}
	m.Seqs = kept
	if err := fs.saveManifest(st, proc, m); err != nil {
		return err
	}
	// References come back only after the recipes are durably gone; a crash
	// in between over-counts, which the next EnableDedup rebuild reclaims.
	fs.dedupRelease(dead)
	return nil
}

// Delete removes one process's chain and manifest.
func (fs *FSStore) Delete(ctx context.Context, proc string) error {
	if err := ValidateProcName(proc); err != nil {
		return err
	}
	st, err := fs.lockProc(ctx, proc)
	if err != nil {
		return err
	}
	defer st.unlock()
	var dead []recipeRefs
	if fs.dedup != nil {
		if m, merr := fs.loadManifest(proc); merr == nil {
			for _, seq := range m.Seqs {
				if rr, ok := fs.readRecipeRefs(proc, seq); ok {
					dead = append(dead, rr)
				}
			}
		}
	}
	if err := fs.fsys.RemoveAll(fs.procDir(proc)); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	fs.dedupRelease(dead)
	return nil
}

// Bytes returns the total stored bytes for proc (from the manifest).
func (fs *FSStore) Bytes(proc string) (int64, error) {
	if err := ValidateProcName(proc); err != nil {
		return 0, err
	}
	m, err := fs.loadManifest(proc)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, sz := range m.Sizes {
		n += int64(sz)
	}
	return n, nil
}
