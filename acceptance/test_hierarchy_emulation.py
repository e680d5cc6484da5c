"""§2.4/§4 validation check: hierarchy emulation correctness at scale."""

from repro.experiments import hierarchy_validation


def test_hierarchy_emulation_correctness(bench_scale):
    output = hierarchy_validation.run(bench_scale, max_questions=80)
    print()
    print(output.render())
    rows = {row[0]: row for row in output.rows}

    matched, total = rows["answer equivalence"][1].split("/")
    assert matched == total, "emulation diverged from independent servers"

    naive_hosts = int(rows["deployment cost"][1].split(" -> ")[0].split()[0])
    meta_hosts = int(rows["deployment cost"][1].split(" -> ")[1].split()[0])
    assert meta_hosts == 1
    assert naive_hosts >= 10  # many hosts collapsed into one

    repeated, total2 = rows["repeatability"][1].split("/")
    assert repeated == total2, "replays are not reproducible"
