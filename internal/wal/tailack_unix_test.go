//go:build unix

package wal

import (
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// TestTailAckWhileWriting takes the tail ack while the flusher is in
// the middle of a batch: the first segment is a FIFO, so the flusher
// blocks opening it until the test opens the read end. The batch being
// written holds the only record, so the tail ack must be that batch's
// — not zero, and not the next batch's, which nothing would flush.
func TestTailAckWhileWriting(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, SegName(0))
	if err := syscall.Mkfifo(seg, 0o644); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	l, err := OpenLog(dir, 0, 0, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	var reader *os.File
	release := func() { // opening the read end lets the flusher's open return
		if reader == nil {
			if reader, err = os.OpenFile(seg, os.O_RDONLY|syscall.O_NONBLOCK, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer func() {
		release()
		l.Close()
		reader.Close()
	}()
	ack, err := l.Append(&Record{Kind: KindCommit, Spans: []Span{{Addr: 1, Vals: []uint64{2}}}})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		l.mu.Lock()
		taken := l.writing != nil
		l.mu.Unlock()
		if taken {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the flusher never took the batch")
		}
	}
	tail := l.TailAck()
	if tail.Done() || tail.ch != ack.ch {
		t.Fatal("tail ack taken during a write is not that write's")
	}
	release()
	if err := tail.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := l.TailAck(); got != (Ack{}) {
		t.Fatal("tail ack is not zero after the write")
	}
}
