package storage

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// WAL files are named wal-NNNNNNNN.log by rotation sequence. A tablet's
// live records are in files with seq >= manifest.WALSeq; flush rotates
// to a new file first, so the segment-covered generations can be deleted
// after the manifest swap.

// A generation's file is zero-filled walChunk bytes ahead of its last
// record (Disk.append): a record then overwrites bytes the file has, and
// the fdatasync before its ack is not a commit of the file system's
// journal, which costs twice the time and waits for what a flush or a
// merge wrote. Replay ends at the zeros; recovery cuts them off.
const walChunk = 256 << 10

var walZeros [walChunk]byte

func walFileName(seq int) string { return fmt.Sprintf("wal-%08d.log", seq) }

// parseWALName extracts the rotation sequence from a WAL file name.
func parseWALName(name string) (int, bool) {
	var seq int
	if _, err := fmt.Sscanf(name, "wal-%08d.log", &seq); err != nil {
		return 0, false
	}
	if walFileName(seq) != name {
		return 0, false
	}
	return seq, true
}

// listWALs returns the WAL sequences present in dir, ascending.
func listWALs(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []int
	for _, e := range entries {
		if seq, ok := parseWALName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// replayWAL reads every intact record of the WAL file at path. torn
// reports that the file ends in a partial or corrupt frame; goodOff is
// the offset just past the last intact frame (truncate here to restore
// prefix consistency).
func replayWAL(path string, fn func(walRecord) error) (goodOff int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, false, err
	}
	r := bufio.NewReaderSize(f, 256<<10)
	for {
		payload, err := readFrame(r, fi.Size()-goodOff)
		if err == io.EOF {
			return goodOff, false, nil
		}
		if err != nil {
			return goodOff, true, nil
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			// An intact frame with an undecodable payload is corruption,
			// not a torn tail, but the recovery response is the same:
			// keep the prefix.
			return goodOff, true, nil
		}
		if err := fn(rec); err != nil {
			return goodOff, false, err
		}
		goodOff += frameHeaderSize + int64(len(payload))
	}
}

// removeWALsBelow deletes WAL files with seq < limit (their records are
// covered by flushed segments).
func removeWALsBelow(dir string, limit int) error {
	seqs, err := listWALs(dir)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if seq < limit {
			if err := os.Remove(filepath.Join(dir, walFileName(seq))); err != nil {
				return err
			}
		}
	}
	return nil
}

// createWAL creates (or truncates) the WAL file for seq and makes its
// directory entry durable.
func createWAL(dir string, seq int) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, walFileName(seq)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}
