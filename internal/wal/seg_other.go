//go:build !linux

package wal

import "os"

// reserve extends the file, sparse, to its segment size, so a killed
// log leaves the same zero-filled tail as on Linux.
func reserve(f *os.File, size int) error { return f.Truncate(int64(size)) }

func datasync(f *os.File) error { return f.Sync() }

// syncDir is a no-op: not every platform can sync a directory.
func syncDir(string) error { return nil }
