package wal

import (
	"errors"
	"os"
	"syscall"
)

// reserve allocates the file's blocks, so a full disk fails when a
// segment is created rather than in the middle of one. A file system
// that cannot reserve gets a sparse file; a full disk then fails the
// write that finds it.
func reserve(f *os.File, size int) error {
	err := syscall.Fallocate(int(f.Fd()), 0, 0, int64(size))
	if errors.Is(err, syscall.EOPNOTSUPP) {
		return f.Truncate(int64(size))
	}
	return err
}

func datasync(f *os.File) error { return syscall.Fdatasync(int(f.Fd())) }

// syncDir makes the names of files created in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
