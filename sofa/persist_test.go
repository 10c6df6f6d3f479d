package sofa

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"testing"
)

// TestLoadRefusesOtherVersions: a saved index loads and answers, and a
// container of another version is refused under the public sentinel.
func TestLoadRefusesOtherVersions(t *testing.T) {
	ix, _, rng := buildFixture(t, 400, 32, Shards(2))
	var buf bytes.Buffer
	if err := Save(ix, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Search(context.Background(), Query{Series: randQuery(rng, 32), K: 3}); err != nil {
		t.Fatal(err)
	}
	// A container of another version is refused under the public sentinel.
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(struct{ Version int }{5}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&old); !errors.Is(err, ErrUnsupportedVersion) {
		t.Errorf("load of a version-5 container: %v, want ErrUnsupportedVersion", err)
	}
}
