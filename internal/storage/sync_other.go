//go:build !linux

package storage

import "os"

type walFile struct{ *os.File }

func newWALFile(f *os.File) *walFile { return &walFile{f} }

func (w *walFile) datasync() error { return w.Sync() }
