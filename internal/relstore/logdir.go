package relstore

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
)

// The log directory: its file names, its one listing, and logFS, the seam
// every file-system call of the durable log goes through.  The device, the
// checkpoint and recovery reach the disk only through a logFS, so a test can
// put a disk under them that keeps only what was synced.

const (
	walSegPrefix  = "wal-"
	walSegSuffix  = ".seg"
	ckptPrefix    = "checkpoint-"
	ckptSuffix    = ".ckpt"
	defaultWALSeg = 4 << 20
)

func walSegName(firstLSN int64) string {
	return fmt.Sprintf("%s%016x%s", walSegPrefix, firstLSN, walSegSuffix)
}

func ckptName(seq int64) string {
	return fmt.Sprintf("%s%016x%s", ckptPrefix, seq, ckptSuffix)
}

// parseLogName returns the number a segment or checkpoint file name encodes
// between prefix and suffix.
func parseLogName(name, prefix, suffix string) (int64, bool) {
	hex, pre := strings.CutPrefix(name, prefix)
	hex, suf := strings.CutSuffix(hex, suffix)
	if !pre || !suf {
		return 0, false
	}
	n, err := strconv.ParseInt(hex, 16, 64)
	return n, err == nil && n >= 0
}

// logDir is what one listing of a log directory finds.
type logDir struct {
	segs  []int64  // first LSN of each segment, ascending
	ckpts []int64  // checkpoint sequence numbers, ascending
	temps []string // checkpoint temp files a crash between create and rename left
}

func listLogDir(fs logFS, dir string) (logDir, error) {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return logDir{}, err
	}
	var l logDir
	for _, e := range ents {
		name := e.Name()
		if n, ok := parseLogName(name, walSegPrefix, walSegSuffix); ok {
			l.segs = append(l.segs, n)
		} else if n, ok := parseLogName(name, ckptPrefix, ckptSuffix); ok {
			l.ckpts = append(l.ckpts, n)
		} else if strings.HasPrefix(name, ckptPrefix) && strings.HasSuffix(name, ".tmp") {
			l.temps = append(l.temps, name)
		}
	}
	slices.Sort(l.segs)
	slices.Sort(l.ckpts)
	return l, nil
}

// logFS is the file system under a log directory.  Paths are full paths.
// What a disk promises is the protocol's business: bytes written to a file
// are durable once its Sync returns, and a created, renamed or removed entry
// or a truncation once Sync of its directory or file returns.
type logFS interface {
	MkdirAll(dir string) error
	ReadDir(dir string) ([]os.DirEntry, error)
	ReadFile(path string) ([]byte, error)
	// Create opens a new, empty file for writing, truncating one of that name.
	Create(path string) (logFile, error)
	Rename(from, to string) error
	Remove(path string) error
	Truncate(path string, size int64) error
	// Sync fsyncs a directory (its entries) or a file (its length).
	Sync(path string) error
}

// logFile is a file Create opened.
type logFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// osFS is the running system's file system.
type osFS struct{}

func (osFS) MkdirAll(dir string) error                 { return os.MkdirAll(dir, 0o755) }
func (osFS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) ReadFile(path string) ([]byte, error)      { return os.ReadFile(path) }
func (osFS) Rename(from, to string) error              { return os.Rename(from, to) }
func (osFS) Remove(path string) error                  { return os.Remove(path) }
func (osFS) Truncate(path string, size int64) error    { return os.Truncate(path, size) }

func (osFS) Create(path string) (logFile, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
}

func (osFS) Sync(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
