# bench-json.awk turns `go test -bench` output into a JSON array with
# one object per benchmark result line: "name" (with "/" spelled "_"),
# "ns_per_op", and one key per further "value unit" pair. A key is its
# unit lowercased with "/" spelled "_per_" (lines/s -> lines_per_s,
# MB/s -> mb_per_s, p99_ns -> p99_ns); B/op becomes bytes_per_op.
#
# Usage: awk -f .github/scripts/bench-json.awk bench.txt > BENCH.json
BEGIN { printf("[") }
/^Benchmark/ && $4 == "ns/op" {
	gsub(/\//, "_", $1)
	printf("%s{\"name\":\"%s\",\"ns_per_op\":%s", sep, $1, $3)
	for (i = 5; i < NF; i += 2) {
		key = ($(i+1) == "B/op") ? "bytes_per_op" : tolower($(i+1))
		gsub(/\//, "_per_", key)
		printf(",\"%s\":%s", key, $i)
	}
	printf("}")
	sep = ","
}
END { print "]" }
