package relstore

import (
	"bytes"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"testing"
)

// memFS is a logFS in memory that keeps what a disk promises and nothing
// more.  A file's bytes are durable once its Sync (or Sync of its path)
// returns; a directory entry — created, renamed or removed — once Sync of its
// directory returns; a truncation once Sync of the file returns.  crash
// builds the disk a power loss leaves, killed the disk a process kill leaves
// (every written byte survives in the page cache).
//
// Every operation takes the disk's lock and the next number, in the order
// the operations happen.
type memFS struct {
	mu      sync.Mutex
	dirs    map[string]bool
	names   map[string]*memInode // the namespace the process sees
	durable map[string]*memInode // the namespace as of the directory's last Sync
	pending []memDirOp           // directory operations since then, in order
	ops     int64

	// fail, when set, sees every operation before it acts: an error fails
	// the operation, which then changes nothing.
	fail func(op memOp) error
	// cutAt, when set, cuts the power as the first operation it accepts
	// starts: lost then holds the disks that power loss leaves, one per tail
	// shape, seeded by seed, and the operation and the run go on.
	cutAt func(op memOp) bool
	seed  int64
	lost  []*memFS
}

// memOp is one operation on a memFS: its number, kind and path.  The kinds
// are "mkdir", "readdir", "read", "create", "rename", "remove", "truncate"
// and "sync" (of a path), and "write", "fsync" and "close" (of a file).
type memOp struct {
	n    int64
	kind string
	path string
}

// memInode is a file's contents: data[:synced] is durable.
type memInode struct {
	data   []byte
	synced int
	// preTrunc is the durable content before a truncation into it that no
	// Sync has made durable yet.
	preTrunc []byte
}

// memDirOp is a directory operation not yet durable.
type memDirOp struct {
	dir   string
	apply func(names map[string]*memInode)
}

// tailShape is what a power loss leaves of a file's written, unsynced bytes.
type tailShape int

const (
	tailNone    tailShape = iota // none of them
	tailCut                      // a prefix, cut at any byte
	tailZeros                    // zeros in their place, to the next 4 KiB
	tailGarbage                  // random bytes in their place
	tailPage                     // a later 4 KiB page without the one before it
	tailShapes
)

var tailNames = [tailShapes]string{"none", "cut", "zeros", "garbage", "page"}

func (s tailShape) String() string { return tailNames[s] }

func newMemFS() *memFS {
	return &memFS{dirs: map[string]bool{}, names: map[string]*memInode{}, durable: map[string]*memInode{}}
}

// do numbers an operation, shows it to cutAt and fail, and runs act.
func (m *memFS) do(kind, path string, act func() error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	op := memOp{m.ops + 1, kind, path}
	if m.cutAt != nil && m.lost == nil && m.cutAt(op) {
		for s := tailShape(0); s < tailShapes; s++ {
			m.lost = append(m.lost, m.crashLocked(m.seed, s))
		}
	}
	m.ops++
	if m.fail != nil {
		if err := m.fail(op); err != nil {
			return &fs.PathError{Op: kind, Path: path, Err: err}
		}
	}
	if act == nil {
		return nil
	}
	return act()
}

// opCount is how many operations the disk has started.  A disk crash or
// killed made starts from the count of the disk it was taken from.
func (m *memFS) opCount() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

func (m *memFS) inode(path string) (*memInode, error) {
	if f, ok := m.names[path]; ok {
		return f, nil
	}
	return nil, fs.ErrNotExist
}

// dirOp applies a directory operation to the namespace the process sees and
// queues it for the durable one.
func (m *memFS) dirOp(path string, apply func(names map[string]*memInode)) {
	apply(m.names)
	m.pending = append(m.pending, memDirOp{filepath.Dir(path), apply})
}

func (m *memFS) MkdirAll(dir string) error {
	return m.do("mkdir", dir, func() error { m.dirs[dir] = true; return nil })
}

func (m *memFS) ReadDir(dir string) (ents []os.DirEntry, err error) {
	err = m.do("readdir", dir, func() error {
		for name := range m.names {
			if filepath.Dir(name) == dir {
				ents = append(ents, memEntry(filepath.Base(name)))
			}
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i].Name() < ents[j].Name() })
		return nil
	})
	return ents, err
}

func (m *memFS) ReadFile(path string) (buf []byte, err error) {
	err = m.do("read", path, func() error {
		f, err := m.inode(path)
		if err == nil {
			buf = append([]byte(nil), f.data...)
		}
		return err
	})
	return buf, err
}

func (m *memFS) Create(path string) (logFile, error) {
	f := &memInode{}
	err := m.do("create", path, func() error {
		m.dirOp(path, func(names map[string]*memInode) { names[path] = f })
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &memFile{m, path, f}, nil
}

func (m *memFS) Rename(from, to string) error {
	return m.do("rename", from, func() error {
		if _, err := m.inode(from); err != nil {
			return err
		}
		m.dirOp(to, func(names map[string]*memInode) {
			if f, ok := names[from]; ok {
				names[to] = f
				delete(names, from)
			}
		})
		return nil
	})
}

func (m *memFS) Remove(path string) error {
	return m.do("remove", path, func() error {
		if _, err := m.inode(path); err != nil {
			return err
		}
		m.dirOp(path, func(names map[string]*memInode) { delete(names, path) })
		return nil
	})
}

func (m *memFS) Truncate(path string, size int64) error {
	return m.do("truncate", path, func() error {
		f, err := m.inode(path)
		if err != nil {
			return err
		}
		n := int(size)
		if n < f.synced {
			if f.preTrunc == nil {
				f.preTrunc = append([]byte(nil), f.data[:f.synced]...)
			}
			f.synced = n
		}
		f.data = append(f.data[:min(n, len(f.data))], make([]byte, max(0, n-len(f.data)))...)
		return nil
	})
}

func (m *memFS) Sync(path string) error {
	return m.do("sync", path, func() error {
		if !m.dirs[path] {
			f, err := m.inode(path)
			if err == nil {
				f.sync()
			}
			return err
		}
		rest := m.pending[:0]
		for _, op := range m.pending {
			if op.dir == path {
				op.apply(m.durable)
			} else {
				rest = append(rest, op)
			}
		}
		m.pending = rest
		return nil
	})
}

func (f *memInode) sync() { f.synced, f.preTrunc = len(f.data), nil }

// memFile is a file a memFS created; it writes its inode whatever name the
// inode has by now.
type memFile struct {
	m    *memFS
	path string
	f    *memInode
}

func (w *memFile) Write(p []byte) (int, error) {
	if err := w.m.do("write", w.path, func() error { w.f.data = append(w.f.data, p...); return nil }); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (w *memFile) Sync() error {
	return w.m.do("fsync", w.path, func() error { w.f.sync(); return nil })
}
func (w *memFile) Close() error { return w.m.do("close", w.path, nil) }

// memEntry is a ReadDir entry: a regular file's name.
type memEntry string

func (e memEntry) Name() string               { return string(e) }
func (e memEntry) IsDir() bool                { return false }
func (e memEntry) Type() fs.FileMode          { return 0 }
func (e memEntry) Info() (fs.FileInfo, error) { return nil, syscall.ENOTSUP }

// killed is the disk a process kill leaves now: everything written.
func (m *memFS) killed() *memFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := newMemFS()
	out.ops = m.ops
	for dir := range m.dirs {
		out.dirs[dir] = true
	}
	for name, f := range m.names {
		out.names[name] = &memInode{data: append([]byte(nil), f.data...), synced: len(f.data)}
	}
	for name, f := range out.names {
		out.durable[name] = f
	}
	return out
}

// crash is the disk a power loss leaves now, drawn from seed and shape.
func (m *memFS) crash(seed int64, shape tailShape) *memFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashLocked(seed, shape)
}

// crashLocked keeps every synced byte and every entry a directory Sync made
// durable, plus a seeded prefix of the directory operations since, and gives
// each file with unsynced bytes a tail of the shape; a truncation no Sync
// made durable keeps the old length or the new one.  m.mu is held.
func (m *memFS) crashLocked(seed int64, shape tailShape) *memFS {
	rng := rand.New(rand.NewSource(seed*int64(tailShapes) + int64(shape)))
	names := map[string]*memInode{}
	for name, f := range m.durable {
		names[name] = f
	}
	for _, op := range m.pending[:rng.Intn(len(m.pending)+1)] {
		op.apply(names)
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	out := newMemFS()
	out.ops = m.ops
	for dir := range m.dirs {
		out.dirs[dir] = true
	}
	for _, name := range sorted {
		out.names[name] = names[name].crashed(rng, shape)
		out.durable[name] = out.names[name]
	}
	return out
}

// crashed is what a power loss leaves of the file.
func (f *memInode) crashed(rng *rand.Rand, shape tailShape) *memInode {
	img := append([]byte(nil), f.data[:f.synced]...)
	if f.preTrunc != nil && rng.Intn(2) == 0 {
		img = append(img[:0], f.preTrunc...)
	} else if tail := f.data[f.synced:]; len(tail) > 0 {
		img = shape.leave(img, tail, rng)
	}
	return &memInode{data: img, synced: len(img)}
}

// leave appends to the durable bytes img what the shape leaves of the
// unsynced tail that follows them.
func (s tailShape) leave(img, tail []byte, rng *rand.Rand) []byte {
	const page = 4096
	off, end := len(img), len(img)+len(tail)
	switch s {
	case tailCut:
		return append(img, tail[:rng.Intn(len(tail)+1)]...)
	case tailZeros:
		return append(img, make([]byte, (end+page-1)/page*page-off)...)
	case tailGarbage:
		junk := make([]byte, len(tail))
		rng.Read(junk)
		return append(img, junk...)
	case tailPage:
		first := off/page*page + page // the first page not holding a durable byte
		if first >= end {
			return img
		}
		p := first + rng.Intn((end-first+page-1)/page)*page
		img = append(img, make([]byte, p-off)...)
		return append(img, tail[p-off:min(p+page, end)-off]...)
	}
	return img
}

// TestMemFSPromises pins what the memory disk keeps through a power loss.
// Each case is crashed with every tail shape and 64 seeds; every crash must
// keep the case's promise, and the crashes together must show every outcome
// the case names — "can vanish" means some crash lost it.
func TestMemFSPromises(t *testing.T) {
	const dir, a, b = "/d", "/d/a", "/d/b"
	synced, unsynced := bytes.Repeat([]byte("s"), 5000), bytes.Repeat([]byte("u"), 9000)
	create := func(t *testing.T, m *memFS, path string, syncedPart, unsyncedPart []byte, syncDir bool) {
		t.Helper()
		f, err := m.Create(path)
		if err == nil {
			_, err = f.Write(syncedPart)
		}
		if err == nil {
			err = f.Sync()
		}
		if err == nil && syncDir {
			err = m.Sync(dir)
		}
		if err == nil {
			_, err = f.Write(unsyncedPart)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name     string
		setup    func(t *testing.T, m *memFS)
		outcome  func(img *memFS) (string, bool) // the crash's outcome, and whether the promise held
		outcomes []string
	}{{
		name:  "a synced byte survives every tail shape",
		setup: func(t *testing.T, m *memFS) { create(t, m, a, synced, unsynced, true) },
		outcome: func(img *memFS) (string, bool) {
			f, ok := img.names[a]
			if !ok || !bytes.HasPrefix(f.data, synced) {
				return "synced bytes lost", false
			}
			return map[bool]string{true: "longer", false: "synced length"}[len(f.data) > len(synced)], true
		},
		outcomes: []string{"longer", "synced length"},
	}, {
		name:  "an unsynced byte can vanish",
		setup: func(t *testing.T, m *memFS) { create(t, m, a, []byte("abc"), []byte("de"), true) },
		outcome: func(img *memFS) (string, bool) {
			f, ok := img.names[a]
			switch {
			case !ok || !bytes.HasPrefix(f.data, []byte("abc")):
				return "synced bytes lost", false
			case string(f.data) == "abcde":
				return "kept", true
			case string(f.data) == "abc":
				return "vanished", true
			}
			return "changed", true
		},
		outcomes: []string{"kept", "vanished", "changed"},
	}, {
		name:  "an entry created without a directory Sync can vanish",
		setup: func(t *testing.T, m *memFS) { create(t, m, a, []byte("abc"), nil, false) },
		outcome: func(img *memFS) (string, bool) {
			if f, ok := img.names[a]; ok {
				return "present", string(f.data) == "abc"
			}
			return "vanished", true
		},
		outcomes: []string{"present", "vanished"},
	}, {
		name: "a rename lands whole or not at all",
		setup: func(t *testing.T, m *memFS) {
			create(t, m, a, []byte("abc"), nil, true)
			if err := m.Rename(a, b); err != nil {
				t.Fatal(err)
			}
		},
		outcome: func(img *memFS) (string, bool) {
			fa, okA := img.names[a]
			fb, okB := img.names[b]
			switch {
			case okA && !okB:
				return "not renamed", string(fa.data) == "abc"
			case okB && !okA:
				return "renamed", string(fb.data) == "abc"
			}
			return "both or neither", false
		},
		outcomes: []string{"not renamed", "renamed"},
	}, {
		name: "a truncation keeps the old length or the new until it is synced",
		setup: func(t *testing.T, m *memFS) {
			create(t, m, a, []byte("abcdef"), nil, true)
			if err := m.Truncate(a, 2); err != nil {
				t.Fatal(err)
			}
		},
		outcome: func(img *memFS) (string, bool) {
			f := img.names[a]
			return string(f.data), string(f.data) == "abcdef" || string(f.data) == "ab"
		},
		outcomes: []string{"abcdef", "ab"},
	}, {
		name: "a synced truncation keeps the new length",
		setup: func(t *testing.T, m *memFS) {
			create(t, m, a, []byte("abcdef"), nil, true)
			if err := m.Truncate(a, 2); err != nil {
				t.Fatal(err)
			}
			if err := m.Sync(a); err != nil {
				t.Fatal(err)
			}
		},
		outcome: func(img *memFS) (string, bool) {
			f := img.names[a]
			return string(f.data), string(f.data) == "ab"
		},
		outcomes: []string{"ab"},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			m := newMemFS()
			if err := m.MkdirAll(dir); err != nil {
				t.Fatal(err)
			}
			tc.setup(t, m)
			seen := map[string]bool{}
			for shape := tailShape(0); shape < tailShapes; shape++ {
				for seed := int64(0); seed < 64; seed++ {
					out, ok := tc.outcome(m.crash(seed, shape))
					if !ok {
						t.Fatalf("tail %s, seed %d: %s", shape, seed, out)
					}
					seen[out] = true
				}
			}
			for _, want := range tc.outcomes {
				if !seen[want] {
					t.Errorf("no crash gave %q (saw %v)", want, seen)
				}
			}
			if len(seen) != len(tc.outcomes) {
				t.Errorf("crashes gave %v, want only %v", seen, tc.outcomes)
			}
		})
	}
}
