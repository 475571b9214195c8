package main

import (
	"flag"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/simsvc"
)

// jsonKeys lists a struct's JSON keys in field order.
func jsonKeys(t reflect.Type) []string {
	var keys []string
	for i := 0; i < t.NumField(); i++ {
		keys = append(keys, strings.Split(t.Field(i).Tag.Get("json"), ",")[0])
	}
	return keys
}

// TestSpellingTable holds the README's "One parameter, four spellings" table
// to the code: one row per network.Config field, in field order, whose
// counterexample key is the field's JSON tag and whose RunSpec key and netsim
// flag, where given, exist. Mutation check: renaming -queue, retagging
// FlitBuf, or adding a Config field without a row each fail it.
func TestSpellingTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(readme)
	section = section[strings.Index(section, "### One parameter, four spellings"):]
	rows := regexp.MustCompile(`(?m)^\| (\w+) \| (\S+) \| (\S+) \| (\S+) \|$`).FindAllStringSubmatch(section, -1)

	specKeys := map[string]bool{}
	for _, k := range jsonKeys(reflect.TypeOf(simsvc.RunSpec{})) {
		specKeys[k] = true
	}
	flags := map[string]bool{}
	flag.VisitAll(func(f *flag.Flag) { flags["-"+f.Name] = true })

	cfg := reflect.TypeOf(network.Config{})
	if len(rows) != cfg.NumField() {
		t.Fatalf("the table has %d rows, network.Config %d fields", len(rows), cfg.NumField())
	}
	for i, key := range jsonKeys(cfg) {
		row := rows[i]
		if row[1] != cfg.Field(i).Name || row[4] != key {
			t.Errorf("row %d is %v; Config field %d is %s with key %q", i, row[1:], i, cfg.Field(i).Name, key)
		}
		if row[2] != "—" && !specKeys[row[2]] {
			t.Errorf("%s: RunSpec has no key %q", row[1], row[2])
		}
		if row[3] != "—" && !flags[row[3]] {
			t.Errorf("%s: netsim has no flag %s", row[1], row[3])
		}
	}
}
