// Package cliutil is the code the command binaries share: flag-validation
// helpers, so every CLI rejects bad inputs with a usage error (exit 2)
// before any simulation work starts instead of failing mid-sweep with an
// obscure os error, and the Harness, the one start-up and shutdown of the
// simulation commands' observability artifacts (harness.go).
package cliutil

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Usagef prints a usage error to stderr and exits with status 2 (the
// conventional flag-error status, distinct from runtime failures' 1).
func Usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: ", filepath.Base(os.Args[0]))
	fmt.Fprintf(os.Stderr, format, args...)
	fmt.Fprintln(os.Stderr, " (see -help)")
	os.Exit(2)
}

// CheckOutputPath validates an output-file flag: the file's parent directory
// must already exist, so a long sweep cannot fail at write time. Empty means
// "flag unset" and always passes.
func CheckOutputPath(flagName, path string) error {
	if path == "" {
		return nil
	}
	dir := filepath.Dir(path)
	fi, err := os.Stat(dir)
	if err != nil {
		return fmt.Errorf("-%s %s: parent directory %s does not exist", flagName, path, dir)
	}
	if !fi.IsDir() {
		return fmt.Errorf("-%s %s: parent %s is not a directory", flagName, path, dir)
	}
	return nil
}

// ParseIntList parses a comma-separated list of ints (e.g. "-vts 10,50,90").
func ParseIntList(flagName, s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("-%s %q: %q is not an integer", flagName, s, p)
		}
		out = append(out, v)
	}
	return out, nil
}
