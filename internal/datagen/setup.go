package datagen

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/store"
)

// SetupStore populates a store from the CLI data specs shared by the
// xia and xiad commands: gen is "xmark:<docs>:<seed>" or
// "tpox:<securities>:<seed>" (count and seed optional), load is
// "<collection>=<dir>[,<collection>=<dir>...]" of directories of .xml
// files. Empty specs are skipped; callers decide whether at least one
// is required.
func SetupStore(st *store.Store, gen, load string) error {
	if gen != "" {
		parts := strings.Split(gen, ":")
		kind := parts[0]
		n, seed := 300, int64(1)
		if len(parts) > 1 {
			v, err := strconv.Atoi(parts[1])
			if err != nil {
				return fmt.Errorf("bad -gen count: %v", err)
			}
			n = v
		}
		if len(parts) > 2 {
			v, err := strconv.ParseInt(parts[2], 10, 64)
			if err != nil {
				return fmt.Errorf("bad -gen seed: %v", err)
			}
			seed = v
		}
		if _, err := Generate(st, kind, n, seed); err != nil {
			return err
		}
	}
	if load != "" {
		for _, spec := range strings.Split(load, ",") {
			coll, dir, ok := strings.Cut(spec, "=")
			if !ok {
				return fmt.Errorf("bad -load spec %q", spec)
			}
			if _, err := LoadDir(st, coll, dir); err != nil {
				return err
			}
		}
	}
	return nil
}

// Generate runs the named generator into st: "xmark" generates n
// documents, "tpox" n securities and their orders and accounts. It
// returns a one-line summary of what it generated.
func Generate(st *store.Store, kind string, n int, seed int64) (string, error) {
	switch kind {
	case "xmark":
		col, err := GenerateXMark(st, XMarkConfig{Docs: n, Seed: seed})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("generated %d documents into %s", col.Len(), col.Name()), nil
	case "tpox":
		if err := GenerateTPoX(st, TPoXConfig{Securities: n, Seed: seed}); err != nil {
			return "", err
		}
		return fmt.Sprintf("generated tpox collections: security=%d order=%d custacc=%d",
			st.Get("security").Len(), st.Get("order").Len(), st.Get("custacc").Len()), nil
	}
	return "", fmt.Errorf("unknown generator %q", kind)
}

// LoadDir inserts every .xml file of dir into collection coll, creating
// it if missing, and returns how many documents it loaded.
func LoadDir(st *store.Store, coll, dir string) (int, error) {
	col := st.Get(coll)
	if col == nil {
		var err error
		if col, err = st.Create(coll); err != nil {
			return 0, err
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	loaded := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".xml") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return loaded, err
		}
		if _, err := col.InsertXML(string(data)); err != nil {
			return loaded, fmt.Errorf("%s: %w", e.Name(), err)
		}
		loaded++
	}
	return loaded, nil
}
