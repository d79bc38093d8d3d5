//go:build !linux

package storage

import "os"

func datasync(f *os.File) error { return f.Sync() }
