package xchainpay

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestReadmeMatchesTree holds README to the tree it describes: the Commands
// table lists exactly the directories under cmd/, and the Experiments table
// exactly the experiments of bench.All(), in their order.
func TestReadmeMatchesTree(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	experimentID := regexp.MustCompile(`^[EA]\d+$`)
	var commands, experiments []string
	section := ""
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "## ") {
			section = line
		}
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		first := strings.TrimSpace(cells[1])
		switch section {
		case "## Commands":
			if name, ok := strings.CutPrefix(first, "`go run ./cmd/"); ok {
				commands = append(commands, strings.TrimSuffix(name, "`"))
			}
		case "## Experiments":
			if experimentID.MatchString(first) {
				experiments = append(experiments, first)
			}
		}
	}

	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	slices.Sort(commands)
	if !slices.Equal(commands, dirs) {
		t.Errorf("README's Commands table lists %v, cmd/ holds %v", commands, dirs)
	}

	var ids []string
	for _, e := range bench.All() {
		ids = append(ids, e.ID)
	}
	if !slices.Equal(experiments, ids) {
		t.Errorf("README's Experiments table lists %v, bench.All() runs %v", experiments, ids)
	}
}
