package fwriter

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestWriterRotation(t *testing.T) {
	fs := NewMemFS()
	w := NewWriter(fs, Config{SizeThreshold: 100, NamePrefix: "s0-"})
	chunk := bytes.Repeat([]byte("x"), 40)
	for i := 0; i < 6; i++ { // 240 bytes -> rotations at >=100
		if err := w.Write(chunk, 1); err != nil {
			t.Fatal(err)
		}
	}
	files, err := w.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("got %d files: %+v", len(files), files)
	}
	if files[0].Name != "s0-part-00000.csv" || files[1].Name != "s0-part-00001.csv" {
		t.Errorf("names: %+v", files)
	}
	if files[0].Raw != 120 || files[1].Raw != 120 {
		t.Errorf("sizes: %+v", files)
	}
	if files[0].Rows != 3 || files[1].Rows != 3 {
		t.Errorf("rows: %+v", files)
	}
	data, ok := fs.Bytes(files[0].Name)
	if !ok || len(data) != 120 {
		t.Errorf("stored bytes = %d", len(data))
	}
}

func TestWriterGzip(t *testing.T) {
	fs := NewMemFS()
	w := NewWriter(fs, Config{SizeThreshold: 1 << 20, Gzip: true})
	payload := bytes.Repeat([]byte("abcdef,123\n"), 1000)
	if err := w.Write(payload, 1000); err != nil {
		t.Fatal(err)
	}
	files, err := w.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("files = %+v", files)
	}
	f := files[0]
	if !strings.HasSuffix(f.Name, ".csv.gz") {
		t.Errorf("name = %q", f.Name)
	}
	if f.Bytes >= f.Raw {
		t.Errorf("compression ineffective: %d >= %d", f.Bytes, f.Raw)
	}
	data, _ := fs.Bytes(f.Name)
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, payload) {
		t.Error("gunzipped content mismatch")
	}
}

func TestWriterGzipLevels(t *testing.T) {
	// Highly compressible payload: BestCompression must beat BestSpeed on
	// size, and every level must decompress back to the original bytes.
	payload := bytes.Repeat([]byte("abcdefgh,12345678,abcdefgh\n"), 4000)
	sizes := map[int]int{}
	for _, level := range []int{gzip.BestSpeed, gzip.BestCompression} {
		fs := NewMemFS()
		w := NewWriter(fs, Config{SizeThreshold: 1 << 24, Gzip: true, GzipLevel: level})
		if err := w.Write(payload, 4000); err != nil {
			t.Fatal(err)
		}
		files, err := w.Flush()
		if err != nil || len(files) != 1 {
			t.Fatalf("level %d: files=%+v err=%v", level, files, err)
		}
		data, _ := fs.Bytes(files[0].Name)
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, payload) {
			t.Fatalf("level %d: content mismatch", level)
		}
		sizes[level] = files[0].Bytes
	}
	if sizes[gzip.BestCompression] >= sizes[gzip.BestSpeed] {
		t.Errorf("best compression (%d bytes) not smaller than best speed (%d bytes)",
			sizes[gzip.BestCompression], sizes[gzip.BestSpeed])
	}
}

func TestWriterPoolReuseAcrossLevels(t *testing.T) {
	// A writer at one level must not be handed a pooled compressor another
	// writer released at a different level: a level-9 file of repetitive
	// text is measurably smaller than the same payload at level 1.
	payload := bytes.Repeat([]byte("abcdefgh,12345678,abcdefgh\n"), 4000)
	flushAt := func(level int) FinishedFile {
		t.Helper()
		w := NewWriter(NewMemFS(), Config{SizeThreshold: 1 << 24, Gzip: true, GzipLevel: level})
		w.Write(payload, 4000)
		files, err := w.Flush()
		if err != nil || len(files) != 1 {
			t.Fatalf("level %d flush: %+v %v", level, files, err)
		}
		return files[0]
	}
	first := flushAt(gzip.BestSpeed)
	second := flushAt(gzip.BestCompression)
	if second.Bytes >= first.Bytes {
		t.Errorf("pooled writer kept the old level: level-9 file %d bytes vs level-1 file %d bytes",
			second.Bytes, first.Bytes)
	}
}

func TestNormGzipLevel(t *testing.T) {
	for in, want := range map[int]int{-1: 0, 0: 0, 1: 1, 9: 9, 10: 0, 42: 0} {
		if got := normGzipLevel(in); got != want {
			t.Errorf("normGzipLevel(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestWriterTakeFinishedOverlapsUploads(t *testing.T) {
	fs := NewMemFS()
	w := NewWriter(fs, Config{SizeThreshold: 10})
	w.Write([]byte("0123456789AB"), 1) // rotates immediately
	got := w.TakeFinished()
	if len(got) != 1 {
		t.Fatalf("TakeFinished = %+v", got)
	}
	if more := w.TakeFinished(); len(more) != 0 {
		t.Errorf("second take = %+v", more)
	}
	w.Write([]byte("more"), 1)
	files, _ := w.Flush()
	if len(files) != 1 {
		t.Errorf("flush = %+v", files)
	}
}

func TestWriterEmptyFlush(t *testing.T) {
	w := NewWriter(NewMemFS(), Config{})
	files, err := w.Flush()
	if err != nil || len(files) != 0 {
		t.Errorf("empty flush: %v %v", files, err)
	}
	// open-but-empty file discarded
	w2 := NewWriter(NewMemFS(), Config{SizeThreshold: 100})
	w2.Write(nil, 0)
	files, err = w2.Flush()
	if err != nil || len(files) != 0 {
		t.Errorf("empty open flush: %v %v", files, err)
	}
}

func TestOSFS(t *testing.T) {
	dir := t.TempDir()
	w := NewWriter(OSFS{Dir: dir}, Config{SizeThreshold: 8, NamePrefix: "x-"})
	w.Write([]byte("0123456789"), 2)
	files, err := w.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("files = %+v", files)
	}
	data, err := os.ReadFile(filepath.Join(dir, files[0].Name))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "0123456789" {
		t.Errorf("content = %q", data)
	}
}

func TestMemFSDuplicateCreate(t *testing.T) {
	fs := NewMemFS()
	f, err := fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := fs.Create("a"); err == nil {
		t.Error("duplicate create accepted")
	}
	fs.Remove("a")
	if _, err := fs.Create("a"); err != nil {
		t.Errorf("create after remove: %v", err)
	}
}

func TestOnRotateCallback(t *testing.T) {
	fs := NewMemFS()
	var rotated []FinishedFile
	w := NewWriter(fs, Config{
		SizeThreshold: 100,
		NamePrefix:    "r0-",
		OnRotate: func(f FinishedFile, d time.Duration) {
			if d < 0 {
				t.Errorf("rotation duration %v < 0", d)
			}
			rotated = append(rotated, f)
		},
	})
	chunk := bytes.Repeat([]byte("x"), 40)
	for i := 0; i < 6; i++ { // 240 bytes -> two threshold rotations
		if err := w.Write(chunk, 1); err != nil {
			t.Fatal(err)
		}
	}
	files, err := w.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(rotated) != len(files) {
		t.Fatalf("OnRotate fired %d times for %d finished files", len(rotated), len(files))
	}
	for i, f := range files {
		if rotated[i] != f {
			t.Errorf("rotation %d = %+v, want %+v", i, rotated[i], f)
		}
	}
}
