"""Stdout of the catalog's CLI consumers and of `compositions`, pinned
by sha256.

The catalog digests (plain format) were recorded from the hand-written
closed forms that the alternating-run constructor replaced, so any
change in an exact count, moment or rendered digit of these commands
shows here.  The `compositions` digests, in all three formats, were
recorded from the bit-tuple enumeration that the integer forms replaced.
"""

import hashlib

import pytest

from bitruns.cli import EXIT_OK, main

_LENGTHS = ",".join(map(str, range(2, 41)))

GOLDEN = {
    ("counts", "unconstrained"): "3a25050281563aab7fb879a735748e41937aa13dec2ef472a8a4a4e2e0c5d87f",
    ("counts", "solus"): "5c003d9dd2db443846c11147b982e109cfb920088fa8267dbb12eb8b62489c2b",
    ("counts", "multus"): "56ab3374a39db12844ce59256d8f8bf61b98375efdb89705555e1c8198d25dcc",
    ("counts", "bimultus"): "961d911f5be7069479758b1403fcf8f9fc35785c24feaf8e4a715b5b07a30d20",
    ("counts", "persolus"): "e619678e6506527fb987f5d72c89d190733f58a070df228d13fec4b4c6a81a8c",
    ("crossgf", "unconstrained", 1, 1): "f12d5567f3d7c16931239a4b1babbd52c190a48b90dc0ea68f873f1dc250337e",
    ("crossgf", "unconstrained", 1, 4): "4f26972f88b4249daa8fcd665372310b3f3f7589ab95cff4c864fe65e46732e8",
    ("crossgf", "unconstrained", 4, 1): "4f26972f88b4249daa8fcd665372310b3f3f7589ab95cff4c864fe65e46732e8",
    ("crossgf", "unconstrained", 2, 3): "dc3c6ec4fd85cf7f0589cd98aa89d8cce1760b6d69cf2999b423ac519bd0fb2d",
    ("crossgf", "unconstrained", 5, 5): "37c3ce8d4db686eb198909d650160dd732bc555dd53e5cdc23c41abb9b5fdd7b",
    ("crossgf", "multus", 1, 1): "3dae675fd0ad856719ce5aa0077b7b5c5830ad6cbee7056424d22255683e68d8",
    ("crossgf", "multus", 1, 4): "3bb9ae35933f095406390a53a84cf903e3ed6aca876f9c9cecba94ac699482df",
    ("crossgf", "multus", 4, 1): "9be3c235fa2c0bd63f1a85f04c88070560179b1aad5caffe7c73d4780067e913",
    ("crossgf", "multus", 2, 3): "a2305581c2e6fc2b5c84b4d3c38e3d3948c21dab41bca044cc53b9aeeba6424c",
    ("crossgf", "multus", 5, 5): "6ea45b9cf75b96078eadc2ca947e5a310bb21ddd68b064c194164473bfb4715e",
    ("moments", "unconstrained", 0): "fa859149c3207784a53aa73545aed113c078b844af06d4b4f30e0b4e19910395",
    ("moments", "unconstrained", 1): "fa859149c3207784a53aa73545aed113c078b844af06d4b4f30e0b4e19910395",
    ("moments", "solus", 0): "7539ffa23a66456322eefbbf784d5d9b16ef3e178a1c0314d8abb66a01c348bf",
    ("moments", "multus", 0): "4cb2b776f6f78935b516e8571b7dc9b84697ffc654c38af73dc6f1ea282728f4",
    ("moments", "multus", 1): "6c11e298c007a954893536448662d3f0d0e07cde6aeb664015bdb2c1888cbfe3",
    ("moments", "bimultus", 0): "8399776045b991f94a9457a03733ab8cf1b46ade9d9575856b5b70a23cb5a320",
    ("moments", "bimultus", 1): "8399776045b991f94a9457a03733ab8cf1b46ade9d9575856b5b70a23cb5a320",
    ("moments", "persolus", 0): "c9497eef73a3283772a4279729651cd60488d712b863a7baf424a5a6db900e79",
    ("asymptotics", "unconstrained"): "e22664967f4cf0acd8bcd7c0d6fabd41854c6920d375bad11cda2475a6021513",
    ("asymptotics", "solus"): "ac3d45d87dd6207b3f6c229953fc454cd1f9c37bd765633dc28d169ed59b7d0d",
    ("asymptotics", "multus"): "9525044fb1091c32888f712676fe1f6d2ce8b7784cda954d0313c352fec44e74",
    ("asymptotics", "bimultus"): "a75d33cb8cc8ad4dadeb49cc3838a3f0888b1460b3920e2f9a4e53f46740cd02",
    ("asymptotics", "persolus"): "f0dc2d11d770891b6bfe6200fed834eb3e015240fb9c81f20a11e22c4fb00052",
}


def _argv(case):
    command, cls, *rest = case
    argv = [command, "--class", cls]
    if command == "counts":
        argv += ["--nmax", "60"]
    elif command == "crossgf":
        i, j = rest
        argv += ["--i", str(i), "--j", str(j), "--order", "40"]
    elif command == "moments":
        argv += ["--bit", str(rest[0]), "--lengths", _LENGTHS]
    return argv


@pytest.mark.parametrize(
    "case", list(GOLDEN), ids=["-".join(map(str, c)) for c in GOLDEN]
)
def test_stdout_digest_is_pinned(capsys, case):
    code = main(_argv(case))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[case]


#: (format, n) -> digest of `bitruns --format F compositions --n N`.
COMPOSITIONS = {
    ("plain", 0): "5c2a7ee1788ec74a4bb2e76c3bc4c2fd86f03ccbbb7e1a45d2bde88480f4bb29",
    ("plain", 1): "78451d4731eb7ff45acd35d3e07539464293f3600f3df8e8a5d4d69de24154db",
    ("plain", 2): "c996bacb13bbb0c5324d1c2245b2e9d19a415221d7a56ae13ee6420f50a39578",
    ("plain", 3): "2393358dfede80d9c33547e02572ec5c0699429a6f86575d67a9e535189555db",
    ("plain", 4): "64c1b9c3e7dcfc9c0e99d8e07124d5f008e186c252c95b59e3547c0fb575f87e",
    ("plain", 5): "c96e7eff20ea9d952809d7ff5e432973c16afd4d1bea6ac810a4bfa5a683563a",
    ("plain", 6): "bf2bd02ad58c7ff7d2215360677f819ecf34c339ac30613fb51beba205aa572c",
    ("plain", 7): "f3e6867c61d9c36a7a70ee83d6d8ba07da00ea661e3893d1a87445a2d4578a04",
    ("plain", 8): "0139467db457bfea0eeb3a98cd68a4e4bd6ef65d08c0ea9309eeb3e89fd40900",
    ("csv", 0): "798e913bae5d932fc340f8b0229bc48082971058b33f07fad438bead77f76a70",
    ("csv", 1): "421a738c5260bbdf2ac27a7b34eb63733b09731e0edbd190dd23df4051d78e2f",
    ("csv", 2): "145afdea7334c4c142b8a6a354298c715af8a749c5fcd98a9c08899722d9addc",
    ("csv", 3): "4d2ffee2e382dc3dd26df8a3291496b162ecb7c37cf5317d821a732b85c81197",
    ("csv", 4): "cb51de1e88fc676b1269672f1edf701f934cc0396ceb0867a37448eef1e1ec86",
    ("csv", 5): "fe475f121f11aa9bd65701e356eca85664beed06e7ff13d43ca9bed9133748a0",
    ("csv", 6): "2ee7467a790eb8d27bd29d634bcbb4e547ca3b6856ecf48b0073b8a4a04b1e87",
    ("csv", 7): "ba6a5f6a42257042b68adade68d4c099c18b0f37ada153420466cfc29514be8b",
    ("csv", 8): "05894358361c71eeea355e64b1525d5138b493811be203c7d243956c2fa0e8e0",
    ("json", 0): "3133f2559e3273c6fb7557608af54f4735f98ed211bd591a77ca2b81fac89ad0",
    ("json", 1): "b0cca459cf21fb3e4488477d11c7963c7cb2415850cc0af30699e42083fe8d7d",
    ("json", 2): "4d453b09f94d19c78cceb1149c079b76294f1994fa24ac305ba7ffdf5b3e77a7",
    ("json", 3): "5dd0eef955c69e5b2a546ff1ef7917632035677c6f6eff475f7c2166744f5f26",
    ("json", 4): "2a1f6036701c05ea7d6cfc96053f825fee2d1323bf51abae506699e99aaffb8e",
    ("json", 5): "3cbbc3ed237041a6848b40ca5fc43b9ee7eae3ebf6ac1c8bb053ccc44194245f",
    ("json", 6): "88503a88fb0401172ea74bc6a5ddf947b14a7e69c420ec789b37061f2e4ac63f",
    ("json", 7): "b2090642f26b3d4e51522143a7b86acd1912f0d98ba82812cc54245d427356cb",
    ("json", 8): "a35bd80217ce919d599091e4994c495f9323b01f51cd8cb983d1745626c81065",
}


@pytest.mark.parametrize(
    "case", list(COMPOSITIONS), ids=["-".join(map(str, c)) for c in COMPOSITIONS]
)
def test_compositions_digest_is_pinned(capsys, case):
    fmt, n = case
    code = main(["--format", fmt, "compositions", "--n", str(n)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == COMPOSITIONS[case]


#: Paper-size runs, recorded from the series route that the cap sum
#: replaced; a few seconds on the cap sum, so deselected by default.
PAPER_SIZE = {
    (
        "moments", "--class", "multus", "--bit", "1",
        "--lengths", ",".join(map(str, range(100, 1001, 100))),
    ): "da62a0443f8e5376585ca596efa6fa7800e8d02ee326e0c69766b38f294a37f4",
    ("moments", "--class", "solus", "--lengths", "2000"):
        "efc0d18af3c37ee5efa39f5743b88403c1e2e3243ed36f3e56778b10e99a5e74",
    ("asymptotics", "--class", "solus", "--lengths", "2000"):
        "6d61ee93049c38661eb46763868a651dcab402864137c2d9b1d548ae78ced90c",
}


@pytest.mark.slow
@pytest.mark.parametrize("argv", list(PAPER_SIZE), ids=["moments-multus-1", "moments-solus", "asymptotics-solus"])
def test_paper_size_digest_is_pinned(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == PAPER_SIZE[argv]


#: (class, bit) -> digest of `bitruns --format json asymptotics --precision
#: 60 --class C --bit B`, recorded from the closed radical forms that the
#: dominant root of the constructor's denominator replaced.
ASYMPTOTICS_60 = {
    ("unconstrained", 0): "82973169ef8992bcaf17ebceec3bf25f0403c44754168d3ac9a4569586eba638",
    ("unconstrained", 1): "31fc4f0989865a6aafbb6a3df448a3aa045c85957c8ec9c20ebef9d0718bdaaf",
    ("solus", 0): "130b462717190f4a469bdf606ccad99b05793e885c729c820938bdd0384971b7",
    ("multus", 0): "cc0fc6743949914369e05d758c7ae392c68fefcbb1df3f6b50b05de3040fb2ac",
    ("multus", 1): "1bfe5484e3318d857dfbe569d843a4a9982b146eb1d0bb19e89282d3e7de4ca8",
    ("bimultus", 0): "cffa97c76523404b9f8d83a994a8cadd91f0aff287ce415ccbb04b6dc83f9822",
    ("bimultus", 1): "9a4e03835a9f45094f1d384d75967544c06c579e607d35e57d2e1bec4dae1284",
    ("persolus", 0): "eebdf4075c5ef43eef432168c0952b1d89de83459cebe6ea3f1e0bef3abe9cf8",
}


@pytest.mark.parametrize(
    "case", list(ASYMPTOTICS_60), ids=["-".join(map(str, c)) for c in ASYMPTOTICS_60]
)
def test_asymptotics_json_at_60_places_is_pinned(capsys, case):
    cls, bit = case
    argv = ["--format", "json", "asymptotics", "--precision", "60", "--class", cls, "--bit", str(bit)]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == ASYMPTOTICS_60[case]


#: Digest of `bitruns asymptotics --precision 1000 --class persolus`,
#: recorded from the closed radical forms.
ASYMPTOTICS_PERSOLUS_1000 = "137764d1f30c19a0e164e26466e5e6d71a9c9a905e85d4b3bf261c9aed536cc0"


def test_asymptotics_at_1000_places_is_pinned(capsys):
    code = main(["asymptotics", "--precision", "1000", "--class", "persolus"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == ASYMPTOTICS_PERSOLUS_1000


#: format -> digest of `bitruns --format F table2 --precision 10
#: --lengths 500,1000,1400`, recorded from the hand-written bitsum GFs
#: that the alternating-run constructor replaced.
TABLE2 = {
    "plain": "b29c62f85acc8376c78301b7570f31b687a78dc62f81511b5c824579444343f9",
    "csv": "3b3da72489a8d2a09109595ce3afb7c7c5e197ffd36726d453b2157bfedfbd90",
    "json": "d85da3754e91fc7280682c9c7f4965645c88f0f1b374b0b4fe1cd9cb7d3bc6e3",
}


@pytest.mark.parametrize("fmt", list(TABLE2))
def test_table2_digest_is_pinned(capsys, fmt):
    argv = ["--format", fmt, "table2", "--precision", "10", "--lengths", "500,1000,1400"]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE2[fmt]


#: format -> digest of `bitruns --format F table1 --precision 10
#: --lengths 100,150,200`, recorded from the two-run series route that
#: the capped cap sum replaced.
TABLE1 = {
    "plain": "538d4b88d62865e7388dc34ecb24b9dba7a8573b839f1de10785708b072b2e22",
    "csv": "586247b95522baab21bd784d76619d9d9f3732b0ba84ae764bc94a475870ca6c",
    "json": "e494b62d0f720c00abc14d870396af187925c63bf1d6dfe8b47db4a0ff3ab155",
}


@pytest.mark.parametrize("fmt", list(TABLE1))
def test_table1_digest_is_pinned(capsys, fmt):
    argv = ["--format", fmt, "table1", "--precision", "10", "--lengths", "100,150,200"]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE1[fmt]


#: Digest of `bitruns table1 --precision 10 --lengths 400`, recorded from
#: the capped cap sum that the largest-part rows replaced (about 16 s
#: there); deselected by default with the other paper-size pins.
TABLE1_400 = "56109f1a1394cd4b3b7177706742101aa5184ea9aa3e52df223c2fa4768751cc"


@pytest.mark.slow
def test_table1_n400_digest_is_pinned(capsys):
    code = main(["table1", "--precision", "10", "--lengths", "400"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE1_400


#: format -> digest of `bitruns --format F verify --scope all --nmax 10`,
#: recorded while the run families were (H, H_k) GF objects.  The row
#: order of the run-moments checks is the order of the family pairs.
VERIFY = {
    "plain": "52f877eeaa8e0e9ebf30ed184dbbdfa6fb695b833821ae20463718623b4a8e92",
    "json": "d80211390d9614a4fb36d9e4a40a430c828effe059b4041c2b0888d6b2613644",
}


@pytest.mark.parametrize("fmt", list(VERIFY))
def test_verify_digest_is_pinned(capsys, fmt):
    code = main(["--format", fmt, "verify", "--scope", "all", "--nmax", "10"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY[fmt]


#: (format, ones, run, nmax) -> digest of `bitruns --format F fewones
#: --ones L --run K --nmax N`, recorded from the published piecewise
#: closed forms (kept in test_jointdp) that the derived pieces replaced.
#: Each csv case runs to n = L*K, one past the last nonzero count.
FEWONES = {
    ("csv", 2, 2, 4): "dbd55d88d5bab071995e5a41d814dc96cb6ae4c107fe76ecd334ed8c394abffd",
    ("csv", 2, 3, 6): "7904f586e04e51399b095ca7ed9787009e8769ed5a70f7d3bef78af0d2da977f",
    ("csv", 2, 7, 14): "0dfa3a269dce8f6a5bd04f68bcaf61567b38beb727ad9cde2333325f87c25e57",
    ("csv", 2, 40, 80): "9194ad1166650fdd89ec3ab703f4e4c24fd8ff6ed8ea4075a40e47f9768ac366",
    ("csv", 3, 2, 6): "69c94447ba5cc3a9e3bdebaf07d84f1bf9670f122df8c08e3995f8daae0abf93",
    ("csv", 3, 3, 9): "b28dfd3687190fd36fbc624216f595ce4e4bc2214e8604e40ace1225c279a4a5",
    ("csv", 3, 7, 21): "c9cb143c8134a591cb8e54d0ab76a4256432cd1135cc310e5845b0c23da64dc8",
    ("csv", 3, 40, 120): "09e5ac37525719286dfa33cfe6a345f11676f7ee739c5f1ba56a1fd93a32733f",
    ("csv", 4, 2, 8): "291fc43b99892d75ded79efdd198fc8fc894f73e344d776d96944123a1bcafd7",
    ("csv", 4, 3, 12): "d7b0af9e3c184d4b3543bb9ebaa308d43276c1397c0efc669195b93104b6d18b",
    ("csv", 4, 7, 28): "191275a6950858375e2a49ad10b3cf32ed5604106e6faed13a1c128c1ded6b02",
    ("csv", 4, 40, 160): "12e8ae0cd7bcd1266043388ec6bed79144cbd4f8fece80739fb2214777eb175a",
    ("csv", 5, 2, 10): "4936452e04e18a0e979a9e03c8e1d690e7435bff9d1ee598a38e3471fa3d70ae",
    ("csv", 5, 3, 15): "4e5fc3601a53465dc6b3e3f3852e13761aff4248163be5f5f83c5bf547a817c4",
    ("csv", 5, 7, 35): "fadca368a03c1a85fa36a7ed546c24ebe807ebb9d664b8ac895db8363e32d234",
    ("csv", 5, 40, 200): "e61c74935046fb4d5e6a672a54dd6307f8135bf4057905ab66ff32689f081fd5",
    ("plain", 5, 7, 34): "845e41968ee714eee1b822b0ffd50755a7afc224a9804167eca583ed141a0f23",
    ("json", 5, 7, 34): "ef13c2525e56ef6761512e837f3b4a7bed496360398a1eee48e51fb5af19bc27",
}


@pytest.mark.parametrize(
    "case", list(FEWONES), ids=["-".join(map(str, c)) for c in FEWONES]
)
def test_fewones_digest_is_pinned(capsys, case):
    fmt, ones, run, nmax = case
    argv = ["--format", fmt, "fewones", "--ones", str(ones), "--run", str(run), "--nmax", str(nmax)]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == FEWONES[case]
