package storage

import (
	"os"
	"syscall"
)

// walFile is an open WAL generation. Its RawConn and the function Control
// runs with it are made once, so datasync allocates nothing; Control keeps
// the descriptor open: a crash restart may Close the file under a sync.
// Syncs of one file must not overlap (syncTo runs one at a time).
type walFile struct {
	*os.File
	rc  syscall.RawConn
	err error // the last datasync's
	do  func(fd uintptr)
}

func newWALFile(f *os.File) *walFile {
	w := &walFile{File: f}
	w.rc, _ = f.SyscallConn() // fails only for a nil f
	w.do = func(fd uintptr) { w.err = syscall.Fdatasync(int(fd)) }
	return w
}

// datasync makes the file's bytes, and its size if that changed, durable.
func (w *walFile) datasync() error {
	if err := w.rc.Control(w.do); err != nil {
		return err
	}
	return w.err
}
