package sofa

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"testing"
)

// WithLoadStats surfaces the load phase breakdown.
func TestLoadStatsIntrospection(t *testing.T) {
	ix, _, rng := buildFixture(t, 400, 32, Shards(2))
	var buf bytes.Buffer
	if err := Save(ix, &buf); err != nil {
		t.Fatal(err)
	}
	var st LoadStats
	loaded, err := Load(bytes.NewReader(buf.Bytes()), WithLoadStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 5 {
		t.Errorf("saved container version %d, want 5", st.Version)
	}
	if st.Bytes != int64(buf.Len()) {
		t.Errorf("stats saw %d bytes of a %d-byte container", st.Bytes, buf.Len())
	}
	if st.TotalSeconds <= 0 || st.DecodeSeconds <= 0 {
		t.Errorf("empty phase timings: %+v", st)
	}
	if st.TotalSeconds < st.DecodeSeconds+st.TreeSeconds {
		t.Errorf("phases exceed total: %+v", st)
	}
	// The loaded index still answers.
	if _, err := loaded.Search(context.Background(), Query{Series: randQuery(rng, 32), K: 3}); err != nil {
		t.Fatal(err)
	}
	// Loading without the option still works (options are optional).
	if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// A container of another version is refused under the public sentinel.
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(struct{ Version int }{4}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&old); !errors.Is(err, ErrUnsupportedVersion) {
		t.Errorf("load of a version-4 container: %v, want ErrUnsupportedVersion", err)
	}
}
