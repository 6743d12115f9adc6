package main

import (
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func TestParseRunList(t *testing.T) {
	cases := []struct {
		list    string
		want    []string
		wantErr string
	}{
		{list: "all", want: []string{"all"}},
		{list: "fig3,table4", want: []string{"fig3", "table4"}},
		{list: " fig3 , raw912 ,", want: []string{"fig3", "raw912"}},
		{list: "table7,rq5time,ablation", want: []string{"ablation", "rq5time", "table7"}},
		{list: "rq1", wantErr: `unknown experiment "rq1"`},
		{list: "fig3,table2", wantErr: `unknown experiment "table2"`},
		{list: "Fig3", wantErr: `unknown experiment "Fig3"`},
		{list: "", wantErr: "no experiment selected"},
		{list: " , ", wantErr: "no experiment selected"},
	}
	for _, c := range cases {
		got, err := parseRunList(c.list)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("parseRunList(%q) error = %v, want %q", c.list, err, c.wantErr)
				continue
			}
			if !strings.Contains(err.Error(), "valid: all,table1,") {
				t.Errorf("parseRunList(%q) error %q does not list the valid ids", c.list, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseRunList(%q): %v", c.list, err)
			continue
		}
		var ids []string
		for id := range got {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		if !reflect.DeepEqual(ids, c.want) {
			t.Errorf("parseRunList(%q) = %v, want %v", c.list, ids, c.want)
		}
	}
}

// TestExperimentIDsMatchSelectors keeps experimentIDs in step with the
// ids the run loop actually selects on.
func TestExperimentIDsMatchSelectors(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{"all": true}
	for _, m := range regexp.MustCompile(`sel\("(\w+)"\)`).FindAllStringSubmatch(string(src), -1) {
		used[m[1]] = true
	}
	declared := map[string]bool{}
	for _, id := range experimentIDs {
		declared[id] = true
	}
	if !reflect.DeepEqual(used, declared) {
		t.Fatalf("selector ids %v, declared ids %v", used, declared)
	}
}
