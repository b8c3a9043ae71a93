package engine

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadShard feeds arbitrary bytes to the snapshot shard decoder. It must
// never panic, and every input it accepts must hold only documents that hash
// to the shard decoding it. Each input is decoded twice: as given (which
// mostly exercises the checksum) and with its trailing CRC recomputed, so
// mutations reach the section decoders behind it.
func FuzzLoadShard(f *testing.F) {
	seed := savedShardFile(f)
	f.Add(seed)
	for _, n := range []int{0, 7, 11, len(seed) / 2, len(seed) - 1} {
		f.Add(seed[:n])
	}
	for _, at := range []int{0, 6, 7, 8, len(seed) / 3, len(seed) / 2, len(seed) - 5} {
		flipped := append([]byte(nil), seed...)
		flipped[at] ^= 0x41
		f.Add(flipped)
	}
	e := New(Config{Shards: 2})
	if _, err := e.decodeShard(seed, 0, 1); err != nil {
		f.Fatalf("the saved shard does not decode: %v", err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resealed(data)} {
			s, err := e.decodeShard(in, 0, 1)
			if err != nil {
				continue
			}
			docs := [][]uint32{s.baseDocs, s.baseTombs}
			for _, fz := range s.frozen {
				docs = append(docs, fz.DocIDs(), fz.Tombs())
			}
			for _, term := range s.active.Terms() {
				docs = append(docs, s.active.Postings(term))
			}
			for _, ids := range docs {
				if err := e.checkPartition(ids, 0); err != nil {
					t.Fatalf("accepted shard breaks the partition: %v", err)
				}
			}
		}
	})
}

// savedShardFile returns the bytes of shard 0 of a saved 2-shard snapshot
// whose tier has a base with tombstones, a frozen segment and an active
// segment.
func savedShardFile(tb testing.TB) []byte {
	tb.Helper()
	e := buildTestEngine(tb, Config{Shards: 2}, 200)
	for d := uint32(200); d < 240; d++ {
		if err := e.AddDocument(d, testDocTerms(d)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := e.FreezeActive(); err != nil {
		tb.Fatal(err)
	}
	for d := uint32(0); d < 240; d += 7 {
		if _, err := e.DeleteDocument(d); err != nil {
			tb.Fatal(err)
		}
	}
	for d := uint32(240); d < 260; d++ {
		if err := e.AddDocument(d, testDocTerms(d)); err != nil {
			tb.Fatal(err)
		}
	}
	dir := tb.TempDir()
	if err := e.SaveSnapshot(dir); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, shardFile(0)))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// resealed returns data with its trailing 4 bytes replaced by the CRC of
// everything before them.
func resealed(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	out := append([]byte(nil), data...)
	payload := out[:len(out)-4]
	binary.BigEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(payload))
	return out
}
