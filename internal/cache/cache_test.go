package cache

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func key(b byte) Key {
	var k Key
	k[0] = b
	k[31] = b ^ 0xFF
	return k
}

func TestMemoryGetPut(t *testing.T) {
	m := NewMemory(0)
	if _, ok := m.Get(key(1)); ok {
		t.Fatal("hit on empty store")
	}
	m.Put(key(1), "one", 100)
	v, ok := m.Get(key(1))
	if !ok || v.(string) != "one" {
		t.Fatalf("Get = %v, %v; want one, true", v, ok)
	}
	// Update in place replaces the value and re-accounts the size.
	m.Put(key(1), "uno", 250)
	v, _ = m.Get(key(1))
	if v.(string) != "uno" {
		t.Fatalf("after update Get = %v", v)
	}
	st := m.Stats()
	if st.Entries != 1 || st.Bytes != 250 {
		t.Fatalf("stats = %+v; want 1 entry, 250 bytes", st)
	}
}

func TestMemoryEvictionOrder(t *testing.T) {
	m := NewMemory(300)
	m.Put(key(1), 1, 100)
	m.Put(key(2), 2, 100)
	m.Put(key(3), 3, 100)
	// Touch key 1 so key 2 is now the least recently used.
	m.Get(key(1))
	evicted, delta := m.Put(key(4), 4, 100)
	if evicted != 1 {
		t.Fatalf("evicted = %d; want 1", evicted)
	}
	if delta != 0 {
		t.Fatalf("bytesDelta = %d; want 0 (+100 new, -100 evicted)", delta)
	}
	if _, ok := m.Get(key(2)); ok {
		t.Fatal("key 2 should have been evicted (LRU)")
	}
	for _, b := range []byte{1, 3, 4} {
		if _, ok := m.Get(key(b)); !ok {
			t.Fatalf("key %d should have survived", b)
		}
	}
	st := m.Stats()
	if st.Evictions != 1 || st.Bytes != 300 {
		t.Fatalf("stats = %+v; want 1 eviction, 300 bytes", st)
	}
}

func TestMemoryOversizeEntryRejected(t *testing.T) {
	m := NewMemory(100)
	evicted, delta := m.Put(key(1), "huge", 101)
	if evicted != 0 || delta != 0 {
		t.Fatalf("oversize Put = (%d, %d); want (0, 0)", evicted, delta)
	}
	if _, ok := m.Get(key(1)); ok {
		t.Fatal("oversize entry should not be stored")
	}
}

func TestMemoryConcurrent(t *testing.T) {
	// A storm of mixed gets/puts; run under -race this proves the
	// locking. Byte accounting must balance after.
	m := NewMemory(1 << 20)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := key(byte(i % 64))
				if i%3 == 0 {
					m.Put(k, i, int64(64+i%128))
				} else {
					m.Get(k)
				}
			}
		}(w)
	}
	wg.Wait()
	st := m.Stats()
	if st.Bytes < 0 || st.Bytes > st.MaxBytes {
		t.Fatalf("byte accounting out of range: %+v", st)
	}
}

func TestDiskRoundTrip(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := key(7)
	if _, ok := d.Get(k); ok {
		t.Fatal("hit on empty disk store")
	}
	payload := []byte(`{"hello":"world"}`)
	d.Put(k, payload)
	got, ok := d.Get(k)
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	st := d.Stats()
	if st.Writes != 1 || st.Hits != 1 || st.Misses != 1 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDiskCorruptionIsAMiss(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := key(9)
	d.Put(k, []byte("payload-bytes"))
	p := d.path(k)
	corruptions := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"garbage", []byte("not a cache entry at all")},
		{"wrong-magic", []byte("other-tool 1 00 00\nx")},
		{"flipped-payload", nil}, // filled below
	}
	orig, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), orig...)
	flipped[len(flipped)-1] ^= 0x01
	corruptions[3].data = flipped

	for _, c := range corruptions {
		if err := os.WriteFile(p, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.Get(k); ok {
			t.Fatalf("%s: corrupt entry served as a hit", c.name)
		}
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: corrupt entry not deleted", c.name)
		}
		// Restore for the next corruption.
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.Stats(); st.Errors != int64(len(corruptions)) {
		t.Fatalf("errors = %d; want %d", st.Errors, len(corruptions))
	}
	// The restored original must still be served.
	if _, ok := d.Get(k); !ok {
		t.Fatal("intact entry no longer served")
	}
}

func TestDiskKeyMismatchIsAMiss(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := key(1), key(2)
	d.Put(k1, []byte("one"))
	// Copy k1's frame to k2's path: the embedded key no longer matches.
	data, err := os.ReadFile(d.path(k1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(d.path(k2)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(d.path(k2), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(k2); ok {
		t.Fatal("frame with foreign key served as a hit")
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	var g Group
	var calls atomic.Int64
	start := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	results := make([]any, n)
	shared := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, sh := g.Do(context.Background(), key(5), func() (any, error) {
				<-start // hold the flight open until all joiners arrive
				calls.Add(1)
				return "value", nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i], shared[i] = v, sh
		}(i)
	}
	close(start)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		// Timing may allow a second flight if the first fully resolved
		// before a goroutine entered Do; all that is guaranteed is that
		// concurrent entries coalesce. With the start barrier, the leader
		// blocks until close, so every goroutine has entered.
		t.Logf("calls = %d (joiners raced past the flight)", got)
	}
	for i, v := range results {
		if v.(string) != "value" {
			t.Fatalf("result %d = %v", i, v)
		}
	}
	_ = shared
}

func TestSingleflightJoinerCancellation(t *testing.T) {
	var g Group
	block := make(chan struct{})
	leaderIn := make(chan struct{})
	go func() {
		g.Do(context.Background(), key(6), func() (any, error) {
			close(leaderIn)
			<-block
			return nil, nil
		})
	}()
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err, shared := g.Do(ctx, key(6), func() (any, error) {
		t.Error("joiner must not run the function")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want context.Canceled", err)
	}
	// The error is the joiner's own, not the flight's outcome, so shared
	// must be false: the caller's retry logic keys on shared meaning "a
	// leader's result", and a self-cancellation is terminal.
	if shared {
		t.Fatal("self-cancelled joiner should report shared=false")
	}
	close(block)
}

// A panicking leader must not wedge its joiners: the flight resolves
// with ErrLeaderPanicked (regression: the done channel used to stay
// open forever, so a panic inside one cached synthesis would hang every
// concurrent identical request in a server).
func TestSingleflightLeaderPanic(t *testing.T) {
	var g Group
	leaderIn := make(chan struct{})
	joinerIn := make(chan struct{})
	joined := make(chan struct{})
	var joinErr error
	var joinShared bool
	go func() {
		defer close(joined)
		<-leaderIn
		close(joinerIn)
		// If scheduling delays this goroutine past the whole flight it
		// leads a fresh one; that is legal, so the fallback fn is benign.
		_, err, shared := g.Do(context.Background(), key(9), func() (any, error) {
			return "fresh", nil
		})
		joinErr, joinShared = err, shared
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate to its caller")
			}
		}()
		g.Do(context.Background(), key(9), func() (any, error) {
			close(leaderIn)
			<-joinerIn // the joiner is at (or entering) Do; let it block
			time.Sleep(20 * time.Millisecond)
			panic("leader boom")
		})
	}()
	<-joined
	// The joiner either shared the panicked flight's outcome or raced
	// past it and led its own (fresh) flight; only the former is
	// guaranteed an error, but neither may hang — reaching here at all
	// is the regression assertion.
	if joinShared && !errors.Is(joinErr, ErrLeaderPanicked) {
		t.Fatalf("joiner err = %v; want ErrLeaderPanicked", joinErr)
	}
	// The key is free again: a later call runs fresh.
	v, err, _ := g.Do(context.Background(), key(9), func() (any, error) {
		return "ok", nil
	})
	if err != nil || v.(string) != "ok" {
		t.Fatalf("retry after panic = %v, %v", v, err)
	}
}

func TestSingleflightErrorPropagates(t *testing.T) {
	var g Group
	boom := fmt.Errorf("boom")
	_, err, _ := g.Do(context.Background(), key(8), func() (any, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v; want boom", err)
	}
	// The flight is cleared: a later call runs fresh.
	v, err, _ := g.Do(context.Background(), key(8), func() (any, error) {
		return "ok", nil
	})
	if err != nil || v.(string) != "ok" {
		t.Fatalf("retry = %v, %v", v, err)
	}
}
