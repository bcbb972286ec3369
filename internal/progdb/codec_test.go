package progdb_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ppd/internal/analysis/absint"
	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/progdb"
	"ppd/internal/workloads"
)

// cachedFrom compiles src and packages the artifacts the way CompileCached
// stores them, vet result and statement table included.
func cachedFrom(t testing.TB, name, src string) *progdb.CachedProgram {
	t.Helper()
	cfg := eblock.DefaultConfig()
	art, err := compile.CompileSource(name, src, cfg)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return &progdb.CachedProgram{
		SourceName: name,
		Source:     src,
		Config:     cfg,
		Prog:       art.Prog,
		Vet:        art.Vet(nil),
		Stmts:      art.Stmts,
	}
}

func testPrograms(t testing.TB) []*progdb.CachedProgram {
	t.Helper()
	var cps []*progdb.CachedProgram
	for _, w := range workloads.Standard() {
		cps = append(cps, cachedFrom(t, w.Name+".mpl", w.Src))
	}
	return cps
}

func TestCodecRoundTrip(t *testing.T) {
	for _, cp := range testPrograms(t) {
		enc := progdb.Encode(cp)
		if got := progdb.EncodedLen(cp); got != len(enc) {
			t.Errorf("%s: EncodedLen = %d, encoded %d bytes", cp.SourceName, got, len(enc))
		}
		dec, err := progdb.Decode(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", cp.SourceName, err)
		}
		// Re-encoding the decoded program must reproduce the bytes exactly:
		// the codec is deterministic and loses nothing it stores.
		re := progdb.Encode(dec)
		if !bytes.Equal(enc, re) {
			t.Errorf("%s: re-encode differs (%d vs %d bytes)", cp.SourceName, len(enc), len(re))
		}
		if dec.SourceName != cp.SourceName || dec.Source != cp.Source || dec.Config != cp.Config {
			t.Errorf("%s: identity fields corrupted", cp.SourceName)
		}
		if cp.Stmts == nil || !reflect.DeepEqual(dec.Stmts, cp.Stmts) {
			t.Errorf("%s: statement table differs after the round trip", cp.SourceName)
		}
		// FuncIdx is rebuilt, not stored.
		for name, idx := range cp.Prog.FuncIdx {
			if dec.Prog.FuncIdx[name] != idx {
				t.Errorf("%s: FuncIdx[%s] = %d, want %d", cp.SourceName, name, dec.Prog.FuncIdx[name], idx)
			}
		}
		if cp.Vet != nil {
			if dec.Vet == nil {
				t.Fatalf("%s: vet result lost", cp.SourceName)
			}
			if got, want := dec.Vet.Text(), cp.Vet.Text(); got != want {
				t.Errorf("%s: vet text differs:\n got: %s\nwant: %s", cp.SourceName, got, want)
			}
			if (dec.Vet.Conflicts == nil) != (cp.Vet.Conflicts == nil) {
				t.Fatalf("%s: conflict matrix presence differs", cp.SourceName)
			}
			if cp.Vet.Conflicts != nil {
				if got, want := dec.Vet.Conflicts.String(), cp.Vet.Conflicts.String(); got != want {
					t.Errorf("%s: conflict matrix differs:\n got: %s\nwant: %s", cp.SourceName, got, want)
				}
				if got, want := dec.Vet.Conflicts.Mask().Elems(), cp.Vet.Conflicts.Mask().Elems(); len(got) != len(want) {
					t.Errorf("%s: rebuilt mask has %d elems, want %d", cp.SourceName, len(got), len(want))
				}
			}
		}
	}
}

func TestCodecVersionMismatch(t *testing.T) {
	cp := cachedFrom(t, "v.mpl", `func main() { print(1); }`)
	enc := progdb.Encode(cp)
	// Byte 4 is the (single-byte) uvarint codec version.
	enc[4] = progdb.CodecVersion + 1
	if _, err := progdb.Decode(enc); err == nil {
		t.Fatal("decode accepted a future codec version")
	}
}

func TestCodecBadMagic(t *testing.T) {
	cp := cachedFrom(t, "m.mpl", `func main() { print(1); }`)
	enc := progdb.Encode(cp)
	enc[0] ^= 0xFF
	if _, err := progdb.Decode(enc); err == nil {
		t.Fatal("decode accepted bad magic")
	}
}

func TestCodecTruncated(t *testing.T) {
	cp := cachedFrom(t, "t.mpl", `
shared g;
sem m = 1;
func inc() { P(m); g = g + 1; V(m); }
func main() { spawn inc(); inc(); }
`)
	enc := progdb.Encode(cp)
	for i := 0; i < len(enc); i++ {
		if _, err := progdb.Decode(enc[:i]); err == nil {
			t.Fatalf("decode accepted truncation to %d/%d bytes", i, len(enc))
		}
	}
}

func TestCodecTrailingGarbage(t *testing.T) {
	cp := cachedFrom(t, "g.mpl", `func main() { print(1); }`)
	enc := append(progdb.Encode(cp), 0x00)
	if _, err := progdb.Decode(enc); err == nil {
		t.Fatal("decode accepted trailing garbage")
	}
}

func TestCodecCorruptNoPanic(t *testing.T) {
	cp := testPrograms(t)[0]
	enc := progdb.Encode(cp)
	// Flip every byte in turn; decode must return (possibly successfully,
	// for don't-care bits) without panicking or over-allocating.
	for i := range enc {
		mut := bytes.Clone(enc)
		mut[i] ^= 0xFF
		_, _ = progdb.Decode(mut)
	}
}

func FuzzArtifactsDecode(f *testing.F) {
	// Every seed carries a statement table.
	for _, w := range workloads.Standard() {
		f.Add(progdb.Encode(cachedFrom(f, w.Name+".mpl", w.Src)))
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.mpl"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(progdb.Encode(cachedFrom(f, filepath.Base(p), string(src))))
	}
	f.Add([]byte("PPDC"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := progdb.Decode(data)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode to a stable byte string.
		enc := progdb.Encode(cp)
		cp2, err := progdb.Decode(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(enc, progdb.Encode(cp2)) {
			t.Fatal("re-encode is not a fixed point")
		}
	})
}

func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := &progdb.Cache{Dir: dir}
	cp := testPrograms(t)[0]
	key := progdb.CacheKey(cp.SourceName, cp.Source, cp.Config, "off", absint.Fingerprint)

	if got, _, err := c.Load(key); err != nil || got != nil {
		t.Fatalf("empty cache Load = %v, %v; want miss", got, err)
	}
	size, err := c.Store(key, cp)
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	if size != progdb.EncodedLen(cp) {
		t.Errorf("stored %d bytes, EncodedLen says %d", size, progdb.EncodedLen(cp))
	}
	got, gotSize, err := c.Load(key)
	if err != nil || got == nil {
		t.Fatalf("load after store = %v, %v", got, err)
	}
	if gotSize != size {
		t.Errorf("loaded size %d, stored %d", gotSize, size)
	}
	if !bytes.Equal(progdb.Encode(got), progdb.Encode(cp)) {
		t.Error("loaded entry differs from stored entry")
	}
}

func TestCacheCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c := &progdb.Cache{Dir: dir}
	cp := cachedFrom(t, "c.mpl", `func main() { print(1); }`)
	key := progdb.CacheKey(cp.SourceName, cp.Source, cp.Config, "off", absint.Fingerprint)
	if _, err := c.Store(key, cp); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.ppdc"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache entries = %v, %v", entries, err)
	}
	if err := os.WriteFile(entries[0], []byte("not a cache entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Load(key)
	if err != nil || got != nil {
		t.Fatalf("corrupt entry Load = %v, %v; want clean miss", got, err)
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	cfg := eblock.DefaultConfig()
	base := progdb.CacheKey("a.mpl", "func main() {}", cfg, "off", absint.Fingerprint)
	if progdb.CacheKey("a.mpl", "func main() { }", cfg, "off", absint.Fingerprint) == base {
		t.Error("key ignores source bytes")
	}
	if progdb.CacheKey("b.mpl", "func main() {}", cfg, "off", absint.Fingerprint) == base {
		t.Error("key ignores source name")
	}
	cfg2 := cfg
	cfg2.LeafInlineThreshold++
	if progdb.CacheKey("a.mpl", "func main() {}", cfg2, "off", absint.Fingerprint) == base {
		t.Error("key ignores e-block config")
	}
	if progdb.CacheKey("a.mpl", "func main() {}", cfg, "off", "absint-v2") == base {
		t.Error("key ignores the abstract-interpreter fingerprint")
	}
	if progdb.CacheKey("a.mpl", "func main() {}", cfg, "off", absint.Fingerprint) != base {
		t.Error("key is not deterministic")
	}
}
