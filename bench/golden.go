package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// Golden digests: at the default seed every run's digest must equal the
// committed one in bench/testdata, and -update rewrites it.

// defaultSeed is the seed the golden digests are recorded at.
const defaultSeed = 1

func goldenPath(root, workload string, sz sizes) string {
	name := workload + ".golden.json"
	if sz.golden != "" {
		name = workload + "." + sz.golden + ".golden.json"
	}
	return filepath.Join(root, "bench", "testdata", name)
}

// normalize re-encodes a JSON document with sorted keys and no spacing, so
// a digest and its pretty-printed golden compare as strings.
func normalize(doc string) (string, error) {
	dec := json.NewDecoder(bytes.NewReader([]byte(doc)))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return "", err
	}
	b, err := json.Marshal(v)
	return string(b), err
}

// readGolden returns the normalized golden digest, or "" if none exists.
func readGolden(root, workload string, sz sizes) (string, error) {
	data, err := os.ReadFile(goldenPath(root, workload, sz))
	if errors.Is(err, fs.ErrNotExist) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	g, err := normalize(string(data))
	if err != nil {
		return "", fmt.Errorf("golden digest of %s: %w", workload, err)
	}
	return g, nil
}

func writeGolden(root, workload string, sz sizes, digest string) error {
	var buf bytes.Buffer
	if err := json.Indent(&buf, []byte(digest), "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	return os.WriteFile(goldenPath(root, workload, sz), buf.Bytes(), 0o644)
}
