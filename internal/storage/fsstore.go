package storage

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FSStore is a file-backed checkpoint store: each checkpoint becomes one
// file under root/<proc>/. It is the package's one Store engine: over OSFS
// checkpoint data survives the simulating process itself (it backs the
// Process facade when durability is wanted, and the aicd replication
// daemon when a peer serves its store over the network); over MemFS
// (NewMemStore) it is the in-memory level of the simulators, the tests and
// aicd -mem, under the same contract.
//
// A name in the directory is a commit: the chain is the set of checkpoint
// files in the proc's directory, and there is no separate manifest. Put
// stages its element (write temp, fsync, rename) and pins the new name
// with one directory fsync before acknowledging — two flushes, plus a root
// fsync for a chain's first commit, which may have created its directory.
// Because the data fsync precedes the rename, a crash anywhere inside Put
// leaves either the old listing or a listing whose every name points at
// fully durable bytes; a name whose rename survived the crash without an
// ack is simply adopted (its bytes were safe before the name existed).
// Removals mirror it: unlink, one directory fsync, and only then are the
// removed elements' chunk references given back.
//
// Each handle keeps the committed chain of every proc it has touched in
// memory: listed from the directory under the proc's token on first touch,
// replaced only after a mutation's directory fsync returns, dropped (and
// re-listed on the next touch) when a mutation fails. Every read goes
// through that view, so no reader ever sees an element before it is
// durable. The view is per handle, so a directory has one open FSStore at
// a time: a second handle does not see the first's later commits.
//
// Every mutation of a chain holds that chain's token, so one process's
// commits are serial — the paper's chain is one process's serial history,
// each checkpoint delta-encoded against the one before. Different processes
// share nothing on disk (disjoint directories), so their commits proceed in
// parallel.
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

// procState is the commit token and committed view for one process's
// chain. States are created on demand and never removed — a deleted chain
// keeps its (empty) state so a later re-append reuses the same token.
type procState struct {
	// tok is a capacity-1 token serializing every mutation of this
	// process's chain: Put, Truncate, Delete, ReplaceAnchor and Scrub all
	// take it, so repairs never interleave with a commit.
	tok chan struct{}

	// view is the committed chain, nil until first listed or after a
	// failed mutation. Stored only with tok held; loaded lock-free.
	view atomic.Pointer[chainView]

	// resync makes the next listing pin the directory first: a failed
	// mutation may have left renames or unlinks of unknown durability.
	// Only touched with tok held.
	resync bool
}

// chainView is one process's committed chain in ascending seq order.
// Immutable once published.
type chainView struct {
	elems []viewElem
}

// viewElem is one committed element: its seq and its file's size on disk.
type viewElem struct {
	seq, size int
}

// last returns the newest committed seq.
func (v *chainView) last() (int, bool) {
	if len(v.elems) == 0 {
		return 0, false
	}
	return v.elems[len(v.elems)-1].seq, true
}

// find returns the index of the first element at or above seq, and
// whether that element is seq itself.
func (v *chainView) find(seq int) (int, bool) {
	i := sort.Search(len(v.elems), func(i int) bool { return v.elems[i].seq >= seq })
	return i, i < len(v.elems) && v.elems[i].seq == seq
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
// in-flight mutation of that chain. ctx cancellation aborts the wait.
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

// invalidate drops the committed view after a failed mutation: the next
// touch re-lists the directory, pinning it first. Caller holds st.tok.
func (st *procState) invalidate() {
	st.view.Store(nil)
	st.resync = true
}

// loadView returns proc's committed view, listing the directory if none is
// loaded. Caller holds st.tok, so no mutation is in flight and every name
// listed is durable — after a failed mutation the directory is fsynced
// first to make it so.
func (fs *FSStore) loadView(st *procState, proc string) (*chainView, error) {
	if v := st.view.Load(); v != nil {
		return v, nil
	}
	dir := fs.procDir(proc)
	entries, err := fs.fsys.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("storage: %w", err)
	}
	if st.resync && err == nil {
		if err := fs.fsys.SyncDir(dir); err != nil {
			return nil, fmt.Errorf("storage: %w", err)
		}
	}
	v := &chainView{}
	for _, e := range entries {
		seq, ok := parseCkptName(e.Name())
		if !ok || e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("storage: %w", err)
		}
		v.elems = append(v.elems, viewElem{seq: seq, size: int(info.Size())})
	}
	sort.Slice(v.elems, func(i, j int) bool { return v.elems[i].seq < v.elems[j].seq })
	st.resync = false
	st.view.Store(v)
	return v, nil
}

// committed returns proc's committed view for a reader, taking the proc
// token only when the view has to be listed.
func (fs *FSStore) committed(ctx context.Context, proc string) (*chainView, error) {
	if v := fs.state(proc).view.Load(); v != nil {
		return v, nil
	}
	st, err := fs.lockProc(ctx, proc)
	if err != nil {
		return nil, err
	}
	defer st.unlock()
	return fs.loadView(st, proc)
}

// Target returns the store's bandwidth model.
func (fs *FSStore) Target() Target { return fs.target }

// ProcDirName maps a proc name to its on-disk directory name, case-fold
// escaped: uppercase letters become "!"+lowercase and a literal "!"
// doubles, the Go module cache's encoding. ValidateProcName accepts names
// differing only by letter case ("Web" vs "web"), and on a
// case-insensitive filesystem (macOS, Windows) verbatim directories would
// silently merge those two chains — interleaved elements, cross-chain
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

func ckptFile(seq int) string { return fmt.Sprintf("ckpt-%08d.aic", seq) }

// ElemPath is the file that holds seq of proc's chain in the FSStore rooted
// at root. Fault injectors use it to damage an element beneath every
// integrity layer.
func ElemPath(root, proc string, seq int) string {
	return filepath.Join(root, ProcDirName(proc), ckptFile(seq))
}

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
// increasing. The checkpoint is durable — data file fsynced, its name
// pinned by a directory fsync — before Put returns nil. Put holds proc's
// token for the whole commit: a Put cancelled while it waits for the token
// is withdrawn; once it holds the token the caller hears the commit's real
// outcome.
func (fs *FSStore) Put(ctx context.Context, proc string, seq int, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := ValidateProcName(proc); err != nil {
		return err
	}
	if fs.met != nil {
		defer func(t0 time.Time) { fs.met.putDur.Observe(time.Since(t0).Seconds()) }(time.Now())
	}
	st, err := fs.lockProc(ctx, proc)
	if err != nil {
		return err
	}
	defer st.unlock()
	dir := fs.procDir(proc)
	view, err := fs.loadView(st, proc)
	if err != nil {
		return err
	}
	if err := fs.fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if last, ok := view.last(); ok && seq <= last {
		return fmt.Errorf("storage: %s: %w: seq %d not after %d", proc, ErrStaleSeq, seq, last)
	}
	// With dedup on, the committed file is a recipe whose chunk bodies are
	// made durable (and referenced) first — a name in the directory never
	// points at a recipe whose chunks are not on disk.
	fileData, release, err := fs.dedupEncode(data)
	if err != nil {
		st.invalidate()
		return err
	}
	name := ckptFile(seq)
	if err := stageWrite(fs.fsys, filepath.Join(dir, name), fileData, 0o644); err != nil {
		release()
		st.invalidate()
		return err
	}
	if fs.met != nil {
		fs.met.stagedBytes.Add(float64(len(data)))
	}
	err = fs.fsys.SyncDir(dir)
	if err == nil && len(view.elems) == 0 {
		err = fs.fsys.SyncDir(fs.root)
	}
	if err != nil {
		// The staged name may or may not be durable: unwind it with the
		// removal protocol, so the chain reads as before and the chunk
		// references come back only once the unlink is pinned. After a real
		// crash the unwind fails too; the references then stay counted and
		// a surviving name is adopted by the next listing.
		if fs.removeCommitted(st, proc, []string{name}, view, nil) == nil {
			release()
		}
		return fmt.Errorf("storage: %w", err)
	}
	st.view.Store(&chainView{elems: append(slices.Clip(view.elems), viewElem{seq: seq, size: len(fileData)})})
	return nil
}

// Get returns whatever committed checkpoints are still readable, in
// sequence order, plus the seqs whose files have gone missing. It never
// fails on a damaged chain element — the last-good-prefix restore decides
// what the gaps cost. It fails only when the chain cannot be listed.
func (fs *FSStore) Get(ctx context.Context, proc string) (chain []Stored, missing []int, err error) {
	_, chain, missing, err = fs.read(ctx, proc, func(int) bool { return true })
	return chain, missing, err
}

// GetSeqs implements SeqGetter: the committed listing plus the wanted files.
func (fs *FSStore) GetSeqs(ctx context.Context, proc string, want []int) (listed []int, chain []Stored, missing []int, err error) {
	wanted := wantSet(want)
	return fs.read(ctx, proc, func(seq int) bool { return wanted[seq] })
}

// read lists proc's committed chain and reads the listed elements wanted
// reports, in sequence order; an unreadable one is missing.
func (fs *FSStore) read(ctx context.Context, proc string, wanted func(seq int) bool) (listed []int, chain []Stored, missing []int, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	if err := ValidateProcName(proc); err != nil {
		return nil, nil, nil, err
	}
	view, err := fs.committed(ctx, proc)
	if err != nil {
		return nil, nil, nil, err
	}
	listed = make([]int, 0, len(view.elems))
	for _, el := range view.elems {
		listed = append(listed, el.seq)
		if !wanted(el.seq) {
			continue
		}
		if data, ok := fs.readElem(proc, el.seq); ok {
			chain = append(chain, Stored{Seq: el.seq, Data: data})
		} else {
			missing = append(missing, el.seq)
		}
	}
	return listed, chain, missing, nil
}

// readElem reads one committed element's payload. Recipes resolve back to
// the exact payload bytes; a lost file, or a recipe whose chunks are
// damaged or gone, reports ok=false — what Get classifies as missing.
func (fs *FSStore) readElem(proc string, seq int) ([]byte, bool) {
	data, err := fs.fsys.ReadFile(ElemPath(fs.root, proc, seq))
	if err != nil {
		return nil, false
	}
	if data, err = fs.resolveData(data); err != nil {
		return nil, false
	}
	return data, true
}

// GetElem returns the single stored element for (proc, seq) — one file
// read, regardless of chain length. A committed element whose file is
// unreadable reports ok=false, matching Get's missing classification.
// Product code asks through ReadElem (GetSeqs for one seq); GetElem stays
// for the benchmark's traced store wrapper, which calls it directly.
//
//aiclint:ignore testonly only bench calls it (its traced store reads); ROADMAP 1(f) moves bench onto the product path and deletes it
func (fs *FSStore) GetElem(ctx context.Context, proc string, seq int) ([]byte, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if err := ValidateProcName(proc); err != nil {
		return nil, false, err
	}
	view, err := fs.committed(ctx, proc)
	if err != nil {
		return nil, false, err
	}
	if _, ok := view.find(seq); !ok {
		return nil, false, nil
	}
	data, ok := fs.readElem(proc, seq)
	return data, ok, nil
}

// removeCommitted is the removal protocol Truncate, ReplaceAnchor and Scrub
// share: unlink the named files in proc's directory, pin the unlinks with
// one directory fsync, publish next as the committed view, and only then
// give back the removed recipes' chunk references — so GCChunks can never
// collect a chunk that a recipe resurrected by a crash still needs. Caller
// holds st.tok; on error the view is dropped and nothing is released.
func (fs *FSStore) removeCommitted(st *procState, proc string, names []string, next *chainView, dead []recipeRefs) error {
	dir := fs.procDir(proc)
	for _, name := range names {
		if err := fs.fsys.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			st.invalidate()
			return fmt.Errorf("storage: %w", err)
		}
	}
	if len(names) > 0 {
		if err := fs.fsys.SyncDir(dir); err != nil {
			st.invalidate()
			return fmt.Errorf("storage: %w", err)
		}
	}
	st.view.Store(next)
	fs.dedupRelease(dead)
	return nil
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
	view, err := fs.loadView(st, proc)
	if err != nil {
		return err
	}
	cut, _ := view.find(fullSeq)
	var names []string
	var dead []recipeRefs
	for _, el := range view.elems[:cut] {
		if fs.dedup != nil {
			if rr, ok := fs.readRecipeRefs(proc, el.seq); ok {
				dead = append(dead, rr)
			}
		}
		names = append(names, ckptFile(el.seq))
	}
	return fs.removeCommitted(st, proc, names, &chainView{elems: view.elems[cut:]}, dead)
}

// Delete removes one process's chain and its directory. The root directory
// is fsynced before any chunk reference is given back, the same ordering as
// every other removal.
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
		if view, verr := fs.loadView(st, proc); verr == nil {
			for _, el := range view.elems {
				if rr, ok := fs.readRecipeRefs(proc, el.seq); ok {
					dead = append(dead, rr)
				}
			}
		}
	}
	if err := fs.fsys.RemoveAll(fs.procDir(proc)); err != nil {
		st.invalidate()
		return fmt.Errorf("storage: %w", err)
	}
	if err := fs.fsys.SyncDir(fs.root); err != nil {
		st.invalidate()
		return fmt.Errorf("storage: %w", err)
	}
	st.view.Store(&chainView{})
	fs.dedupRelease(dead)
	return nil
}

// Bytes returns the total stored bytes of proc's committed elements.
func (fs *FSStore) Bytes(proc string) (int64, error) {
	if err := ValidateProcName(proc); err != nil {
		return 0, err
	}
	st := fs.state(proc)
	view := st.view.Load()
	if view == nil {
		// Bytes takes no ctx: listing the chain waits out at most the one
		// commit in flight, uncancellably.
		st.tok <- struct{}{}
		var err error
		view, err = fs.loadView(st, proc)
		st.unlock()
		if err != nil {
			return 0, err
		}
	}
	var n int64
	for _, el := range view.elems {
		n += int64(el.size)
	}
	return n, nil
}
