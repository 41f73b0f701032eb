#!/bin/sh
# End-to-end exercise of the pcause CLI: simulate three chips,
# characterize two of them, then check identification, the unknown
# case, and clustering. Invoked by ctest with the binary path as $1.
set -eu

if [ $# -lt 1 ]; then
    echo "usage: cli_test.sh <path-to-pcause-binary>" >&2
    exit 2
fi
PCAUSE="$1"
if [ ! -x "$PCAUSE" ]; then
    echo "FAIL: pcause binary not found or not executable: $PCAUSE" >&2
    exit 1
fi
# Committed inputs: a PCDB v3 file, a PCDB v4 file of the same store,
# and an output of its chip-3.
DATA="$(cd "$(dirname "$0")" && pwd)/data"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT INT TERM HUP
cd "$WORK"

"$PCAUSE" simulate --chips 3 --trials 4 --out . > /dev/null

"$PCAUSE" characterize --db db.pcdb --label alpha --exact exact.pcbv \
    chip0_trial0.pcbv chip0_trial1.pcbv chip0_trial2.pcbv > /dev/null
"$PCAUSE" characterize --db db.pcdb --label beta --exact exact.pcbv \
    chip1_trial0.pcbv chip1_trial1.pcbv chip1_trial2.pcbv > /dev/null

"$PCAUSE" db --db db.pcdb | grep -q "2 records"

# A fresh output of chip 1 must identify as beta.
"$PCAUSE" identify --db db.pcdb --exact exact.pcbv \
    chip1_trial3.pcbv | grep -q "match: beta"

# Chip 2 was never characterized: identify must fail (exit 1).
if "$PCAUSE" identify --db db.pcdb --exact exact.pcbv \
    chip2_trial0.pcbv > /dev/null; then
    echo "FAIL: unknown chip identified" >&2
    exit 1
fi

# The linear reference scan must agree with the indexed verdict.
"$PCAUSE" identify --db db.pcdb --exact exact.pcbv --linear yes \
    chip1_trial3.pcbv | grep -q "match: beta"

# So must querying the v4 file in place, without loading it.
"$PCAUSE" identify --db db.pcdb --exact exact.pcbv --mmap yes \
    chip1_trial3.pcbv | grep -q "match: beta"

# A threshold the wire refuses (NaN, infinite, negative) is refused
# with its reason, never answered (a NaN once printed "no match" for
# this matching output); cluster refuses it before clustering.
for t in nan inf -1; do
    if "$PCAUSE" identify --db db.pcdb --exact exact.pcbv \
        --threshold "$t" chip1_trial3.pcbv > threshold.out 2>&1; then
        echo "FAIL: identify answered --threshold $t" >&2
        exit 1
    fi
    if ! grep -q "threshold" threshold.out ||
        grep -q "match" threshold.out; then
        echo "FAIL: identify --threshold $t: $(cat threshold.out)" >&2
        exit 1
    fi
    for mode in "" "--campaign yes --chips 2 --outputs 4"; do
        # shellcheck disable=SC2086
        if "$PCAUSE" cluster $mode --exact exact.pcbv --threshold "$t" \
            chip0_trial0.pcbv chip1_trial0.pcbv > threshold.out 2>&1 ||
            ! grep -q "threshold" threshold.out; then
            echo "FAIL: cluster $mode accepted --threshold $t" >&2
            exit 1
        fi
    done
done

# Index diagnostics and reindexing under new parameters.
"$PCAUSE" db --db db.pcdb stats | grep -q "minhash"
"$PCAUSE" db --db db.pcdb stats | grep -q "lsh_bytes [1-9]"
"$PCAUSE" db --db db.pcdb stats | grep -q "postings_bytes [1-9]"
"$PCAUSE" db --db db.pcdb reindex --hashes 32 --bands 16 \
    | grep -q "reindexed 2 records"
"$PCAUSE" db --db db.pcdb stats | grep -q "32 hashes"
"$PCAUSE" identify --db db.pcdb --exact exact.pcbv \
    chip1_trial3.pcbv | grep -q "match: beta"
"$PCAUSE" identify --db db.pcdb --exact exact.pcbv --mmap yes \
    chip1_trial3.pcbv | grep -q "match: beta"

# Custom index parameters must survive a later characterize run
# (the new record's signature is computed under the file's params,
# not the defaults).
"$PCAUSE" characterize --db db.pcdb --label gamma --exact exact.pcbv \
    chip2_trial0.pcbv chip2_trial1.pcbv chip2_trial2.pcbv > /dev/null
"$PCAUSE" db --db db.pcdb stats | grep -q "32 hashes"
"$PCAUSE" identify --db db.pcdb --exact exact.pcbv \
    chip2_trial3.pcbv | grep -q "match: gamma"

# A database rewrite never truncates the file it replaces: under a
# file-size limit too small for the new image (SIGXFSZ ignored, so
# the write fails with EFBIG instead of killing the process),
# characterize and reindex fail, and the database is byte-identical
# and still verifies.
cp db.pcdb before.pcdb
for rewrite in "characterize --db db.pcdb --label delta --exact exact.pcbv chip2_trial0.pcbv" \
    "db --db db.pcdb reindex --hashes 64 --bands 16"; do
    rc=0
    # shellcheck disable=SC2086
    (ulimit -f 16 && trap '' XFSZ && exec "$PCAUSE" $rewrite) \
        > rewrite.out 2>&1 || rc=$?
    if [ "$rc" -eq 0 ]; then
        echo "FAIL: $rewrite succeeded under an 8 KB file limit" >&2
        exit 1
    fi
    if ! cmp -s before.pcdb db.pcdb; then
        echo "FAIL: a failed '$rewrite' changed the database" >&2
        exit 1
    fi
done
if ls db.pcdb.tmp.* > /dev/null 2>&1; then
    echo "FAIL: a failed rewrite left its temp file behind" >&2
    exit 1
fi
"$PCAUSE" db --db db.pcdb verify | grep -q "3 records, PCDB v5, ok"

# MinHash parameters no file may declare (bands that do not divide
# the hashes, more than 65,536 hashes) are refused with the reason
# the file check gives, before anything is written.
for params in "--hashes 64 --bands 7" "--hashes 131072 --bands 16"; do
    rc=0
    # shellcheck disable=SC2086
    "$PCAUSE" db --db db.pcdb reindex $params > reindex.out 2>&1 || rc=$?
    if [ "$rc" -eq 0 ] ||
        ! grep -q "invalid minhash parameters" reindex.out; then
        echo "FAIL: db reindex $params exited $rc: $(cat reindex.out)" >&2
        exit 1
    fi
    if ! cmp -s before.pcdb db.pcdb; then
        echo "FAIL: a refused 'db reindex $params' changed the database" >&2
        exit 1
    fi
done

# Flags are read strictly: a number that is not the whole value, and
# a flag the command does not take, are refused naming the flag
# (exit 1, never an abort) before anything is written.
for bad in "reindex --hashes abc" "reindex --hashes 64x" \
    "--treshold 0.5 stats"; do
    rc=0
    # shellcheck disable=SC2086
    "$PCAUSE" db --db db.pcdb $bad > flag.out 2>&1 || rc=$?
    flag=$(echo "$bad" | grep -o -- '--[a-z]*')
    if [ "$rc" -ne 1 ] || ! grep -q -- "$flag" flag.out; then
        echo "FAIL: db $bad exited $rc: $(cat flag.out)" >&2
        exit 1
    fi
    if ! cmp -s before.pcdb db.pcdb; then
        echo "FAIL: a refused 'db $bad' changed the database" >&2
        exit 1
    fi
done

# A v3 file (written by the v3 writer) loads, rebuilding its index,
# and `db stats`/`db verify` say which version it is. The mmap reader
# refuses it and names the upgrade; `db reindex` rewrites it as v5,
# which then maps.
printf 'PCBV\001\000\000\000\000\001\000\000\000\000\000\000' \
    > zero256.pcbv
head -c 32 /dev/zero >> zero256.pcbv
cp "$DATA/pcdb_v3_small.pcdb" v3.pcdb
cp "$DATA/pcdb_v3_small_chip3.pcbv" chip3.pcbv
"$PCAUSE" db --db v3.pcdb stats | grep -q "format            : PCDB v3"
"$PCAUSE" db --db v3.pcdb verify | grep -q "24 records, PCDB v3"
"$PCAUSE" identify --db v3.pcdb --exact zero256.pcbv chip3.pcbv \
    | grep -q "match: chip-3"
if "$PCAUSE" identify --db v3.pcdb --exact zero256.pcbv --mmap yes \
    chip3.pcbv > mapped.out 2>&1; then
    echo "FAIL: a v3 file was mapped" >&2
    exit 1
fi
grep -q "pcause db reindex" mapped.out

# A v3 file signed under the retired 64-hash scheme (header offset
# 20 holds 0) is re-signed on load: it still identifies, and
# `db stats` and `db verify` say so. `db reindex` rewrites it as a
# scheme-1 v5 file, which maps.
cp v3.pcdb old.pcdb
printf '\000' | dd of=old.pcdb bs=1 seek=20 count=1 conv=notrunc \
    2>/dev/null
"$PCAUSE" db --db old.pcdb stats | grep -q "scheme 0"
"$PCAUSE" db --db old.pcdb verify | grep -q "db reindex"
"$PCAUSE" identify --db old.pcdb --exact zero256.pcbv chip3.pcbv \
    | grep -q "match: chip-3"
if "$PCAUSE" identify --db old.pcdb --exact zero256.pcbv --mmap yes \
    chip3.pcbv > mapped.out 2>&1; then
    echo "FAIL: a scheme-0 file was mapped" >&2
    exit 1
fi
grep -q "pcause db reindex" mapped.out
for f in v3.pcdb old.pcdb; do
    "$PCAUSE" db --db "$f" reindex | grep -q "reindexed 24 records"
    "$PCAUSE" db --db "$f" stats | grep -q "scheme 1"
    "$PCAUSE" db --db "$f" stats | grep -q "format            : PCDB v5"
    "$PCAUSE" identify --db "$f" --exact zero256.pcbv --mmap yes \
        chip3.pcbv | grep -q "match: chip-3"
done

# A v4 file (written by the v4 writer, of the v3 file's store) loads
# and maps, both readers skipping its signature arena, and `db stats`
# and `db verify` say it is v4. `db reindex` rewrites it as v5, and
# chip-3's output gets the same answer before and after.
cp "$DATA/pcdb_v4_small.pcdb" v4.pcdb
"$PCAUSE" db --db v4.pcdb stats | grep -q "format            : PCDB v4"
"$PCAUSE" db --db v4.pcdb verify | grep -q "24 records, PCDB v4"
"$PCAUSE" identify --db v4.pcdb --exact zero256.pcbv chip3.pcbv \
    > v4_before.out
grep -q "match: chip-3" v4_before.out
"$PCAUSE" identify --db v4.pcdb --exact zero256.pcbv --mmap yes \
    chip3.pcbv | grep -q "match: chip-3"
"$PCAUSE" db --db v4.pcdb reindex | grep -q "reindexed 24 records"
"$PCAUSE" db --db v4.pcdb stats | grep -q "format            : PCDB v5"
"$PCAUSE" identify --db v4.pcdb --exact zero256.pcbv chip3.pcbv \
    > v4_after.out
if ! cmp -s v4_before.out v4_after.out; then
    echo "FAIL: the v4 file answered '$(cat v4_before.out)'," \
        "rewritten as v5 '$(cat v4_after.out)'" >&2
    exit 1
fi

# Without a signature arena the file's length bounds no hash count:
# 1024 hashes over 24 records make a file of about 14 KB, which loads
# and maps.
cp "$DATA/pcdb_v4_small.pcdb" wide.pcdb
"$PCAUSE" db --db wide.pcdb reindex --hashes 1024 --bands 16 \
    | grep -q "reindexed 24 records"
"$PCAUSE" db --db wide.pcdb stats | grep -q "1024 hashes"
"$PCAUSE" identify --db wide.pcdb --exact zero256.pcbv --mmap yes \
    chip3.pcbv | grep -q "match: chip-3"

# A database holds one bit count: a 16-bit output is refused before
# anything is written.
printf 'PCBV\001\000\000\000\020\000\000\000\000\000\000\000\377\377' \
    > small.pcbv
if "$PCAUSE" characterize --db db.pcdb --label small --exact small.pcbv \
    small.pcbv > /dev/null 2>&1; then
    echo "FAIL: a second bit count was characterized" >&2
    exit 1
fi
"$PCAUSE" db --db db.pcdb | grep -q "3 records"

# A label longer than any database file may hold is refused before
# anything is written: written, it would make every later load of
# the file fail. The database still loads and answers.
long_label=$(head -c 70000 /dev/zero | tr '\000' x)
if "$PCAUSE" characterize --db db.pcdb --label "$long_label" \
    --exact exact.pcbv chip2_trial0.pcbv > label.out 2>&1; then
    echo "FAIL: a 70000-byte label was characterized" >&2
    exit 1
fi
grep -q "label has 70000 bytes" label.out
"$PCAUSE" db --db db.pcdb | grep -q "3 records"
"$PCAUSE" identify --db db.pcdb --exact exact.pcbv \
    chip1_trial3.pcbv | grep -q "match: beta"

# identify and cluster refuse an output whose bit count differs from
# --exact's, naming both files, instead of aborting on an assertion.
# So is a header claiming 2^62 bits over two payload bytes, before
# anything is allocated for it.
printf 'PCBV\001\000\000\000\000\000\000\000\000\000\000\100\377\377' \
    > huge.pcbv
for probe in "identify --db db.pcdb --exact exact.pcbv small.pcbv" \
    "cluster --exact exact.pcbv chip0_trial0.pcbv small.pcbv" \
    "cluster --exact exact.pcbv chip0_trial0.pcbv huge.pcbv"; do
    rc=0
    # shellcheck disable=SC2086
    "$PCAUSE" $probe > refused.out 2>&1 || rc=$?
    if [ "$rc" -ne 1 ] || grep -q "panic" refused.out ||
        ! grep -qE "exact.pcbv|truncated" refused.out; then
        echo "FAIL: $probe exited $rc: $(cat refused.out)" >&2
        exit 1
    fi
done

# A corrupt database must fail with a message, not crash.
echo "garbage" > broken.pcdb
if "$PCAUSE" db --db broken.pcdb > /dev/null 2>&1; then
    echo "FAIL: corrupt database accepted" >&2
    exit 1
fi

# Crash-recovery triage: `db verify` exits 0 healthy, 1 recoverable,
# 2 corrupt. No journal at all is a healthy cold database.
"$PCAUSE" db --db db.pcdb verify | grep -q "absent"

# An empty journal (header only: "PCWL", version 1, base 0) is
# healthy.
printf 'PCWL\001\000\000\000\000\000\000\000\000\000\000\000' \
    > db.pcdb.wal
"$PCAUSE" db --db db.pcdb verify | grep -q "0 entries"

# A torn tail — an entry header claiming 100 payload bytes with only
# 3 present, the shape a crash mid-append leaves — is recoverable.
printf 'PCWL\001\000\000\000\000\000\000\000\000\000\000\000' \
    > db.pcdb.wal
printf '\144\000\000\000\252\252\252\252abc' >> db.pcdb.wal
rc=0
"$PCAUSE" db --db db.pcdb verify > /dev/null || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "FAIL: torn journal tail triaged as $rc, want 1" >&2
    exit 1
fi

# A journal whose entry holds another bit count (16 bits, against
# the snapshot's records) is corruption: no restart could replay it.
printf 'PCWL\001\000\000\000\003\000\000\000\000\000\000\000' \
    > db.pcdb.wal
printf '\036\000\000\000\346H\217\310\001\001\000\000\000x\001\000\000\000' \
    >> db.pcdb.wal
printf '\020\000\000\000\000\000\000\000\001\000\000\000\000\000\000\000' \
    >> db.pcdb.wal
printf '\003\000\000\000' >> db.pcdb.wal
rc=0
"$PCAUSE" db --db db.pcdb verify > verify.out || rc=$?
if [ "$rc" -ne 2 ] ||
    ! grep -q "entry 0: the fingerprint has 16 bits" verify.out; then
    echo "FAIL: mixed-bit-count journal triaged as $rc, want 2" >&2
    exit 1
fi

# So is an entry no database file may hold, named in the words the
# snapshot check uses: zero sources (replay used to abort), a universe
# of 2^40 bits, a label of 65,537 bytes (replay used to apply both).
journal_refused() {
    rc=0
    "$PCAUSE" db --db db.pcdb verify > verify.out || rc=$?
    if [ "$rc" -ne 2 ] || ! grep -qF "entry 0: $1" verify.out; then
        echo "FAIL: journal entry with $1 triaged as $rc, want 2:" \
            "$(cat verify.out)" >&2
        exit 1
    fi
}
printf 'PCWL\001\000\000\000\003\000\000\000\000\000\000\000' \
    > db.pcdb.wal
printf '\036\000\000\000\342Q\304\242\001\001\000\000\000x\000\000\000\000' \
    >> db.pcdb.wal
printf '\000\000\004\000\000\000\000\000\001\000\000\000\000\000\000\000' \
    >> db.pcdb.wal
printf '\003\000\000\000' >> db.pcdb.wal
journal_refused "record with zero sources"

printf 'PCWL\001\000\000\000\003\000\000\000\000\000\000\000' \
    > db.pcdb.wal
printf '\036\000\000\000\0538\262\221\001\001\000\000\000x\001\000\000\000' \
    >> db.pcdb.wal
printf '\000\000\000\000\000\001\000\000\001\000\000\000\000\000\000\000' \
    >> db.pcdb.wal
printf '\003\000\000\000' >> db.pcdb.wal
journal_refused "universe exceeds 2^32 bits"

printf 'PCWL\001\000\000\000\003\000\000\000\000\000\000\000' \
    > db.pcdb.wal
printf '\036\000\001\000N\353g\337\001\001\000\001\000' >> db.pcdb.wal
head -c 65537 /dev/zero | tr '\000' x >> db.pcdb.wal
printf '\001\000\000\000\000\000\004\000\000\000\000\000\001\000\000\000' \
    >> db.pcdb.wal
printf '\000\000\000\000\003\000\000\000' >> db.pcdb.wal
journal_refused "implausible label length"

# A journal with a damaged magic is corruption, not a torn tail.
printf 'XWAL\001\000\000\000\000\000\000\000\000\000\000\000' \
    > db.pcdb.wal
rc=0
"$PCAUSE" db --db db.pcdb verify > /dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "FAIL: bad journal magic triaged as $rc, want 2" >&2
    exit 1
fi
rm db.pcdb.wal

# A corrupt snapshot is triaged (exit 2), not a crash.
rc=0
"$PCAUSE" db --db broken.pcdb verify > /dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "FAIL: corrupt snapshot triaged as $rc, want 2" >&2
    exit 1
fi

# Clustering four outputs of three chips must find three clusters.
"$PCAUSE" cluster --exact exact.pcbv chip0_trial0.pcbv \
    chip1_trial0.pcbv chip0_trial1.pcbv chip2_trial0.pcbv \
    | grep -q "4 outputs -> 3 clusters"

# The streaming campaign mode must recover the fleet exactly (one
# cluster per chip, pure), agree with the pairwise replay, and export
# a loadable discovered database.
"$PCAUSE" cluster --campaign yes --chips 20 --outputs 2000 \
    --pairwise yes --db discovered.pcdb > campaign.out
grep -q "2000 outputs -> 20 clusters" campaign.out
grep -q "purity 1.000000" campaign.out
grep -q "0 assignment divergences" campaign.out
"$PCAUSE" db --db discovered.pcdb | grep -q "20 records"

# The model subcommand must report the paper's Table 1 entropy.
"$PCAUSE" model | grep -q "2423 bits"

echo "cli test passed"
