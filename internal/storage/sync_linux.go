package storage

import (
	"os"
	"syscall"
)

// datasync makes f's bytes, and its size if that changed, durable. Control
// keeps the descriptor open: a crash restart may Close f under a sync.
func datasync(f *os.File) error {
	rc, err := f.SyscallConn()
	if err == nil {
		if cerr := rc.Control(func(fd uintptr) { err = syscall.Fdatasync(int(fd)) }); cerr != nil {
			return cerr
		}
	}
	return err
}
