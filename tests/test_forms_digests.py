"""``forms`` output pinned by digest on the benchmark's synthetic fields.

The sha256 of ``forms`` stdout, in both formats, on the ``bench/fields.py``
field of each seed and branch count.  A change that alters the atlas, its
order or its rendering on these fields changes a digest; one that only
makes the enumeration cheaper does not.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import fields  # noqa: E402

from emphase import cli  # noqa: E402

# (seed, k, format) -> sha256 of the stdout of ``forms``
DIGESTS = {
    (1, 4, "structured"): "ef2f997d09ed8b03f41115425169b35ed658bc2168e12bb87856242fe57dde4a",
    (1, 4, "text"): "1d1908ef3df6507c33598db6fc0cdcd879acacf3c4bd331d4f98df386938a8f5",
    (1, 5, "structured"): "34ecb3da662dca46b4b16b5b8c97482374f67dfd1f5ad75e58069cfd3a1492f4",
    (1, 5, "text"): "4308769c85655b018501d7998c97df818c18bf1103a314415fe5d2b1e9776e49",
    (1, 6, "structured"): "110b5c6155cebbfcab1ea1a75332bdbf4ab420347eea1f2d523e579ef7deeb80",
    (1, 6, "text"): "80a9cfdfde80b2aa07e5af2eaee07193f387d9da6249f235a1df04c40579eadf",
    (1, 7, "structured"): "ce40a269544b121cadd819d83c126bfa386f1341b0fd6697ddde61ecbdf4b7e9",
    (1, 7, "text"): "965ad1412e2cb8a15ed7c1d2f9bf628e84eb5a8415b3d28da378e60c4d89a3fa",
    (2, 4, "structured"): "7c6723b67ab6e364e4f424d9ffafb6b51f689e5ebedf02491d96e52093c0f17a",
    (2, 4, "text"): "4cb359c91262c3b3aacd593194339bc0eebe040e9f7ce50f8fa80476cd10a570",
    (2, 5, "structured"): "ee9b03498056d5a8971d70fed87f4e18ef380524cff2d3ff172c6ed20d22f3dc",
    (2, 5, "text"): "816c5d172844433aec6260cb20050955560f9f70fd5620ed1a6a26431f40758f",
    (2, 6, "structured"): "388c1aad600e1be6477b53714c751e7864bdf510e6a1533abe7854bdbbfd665e",
    (2, 6, "text"): "0cf71fee4793e8029cbed94c65f442eb3827330690770c03150a4f8e792bd190",
    (2, 7, "structured"): "431dc6262156c931b247f756f96f85eba6aca39c11684a9b31a29f47f4d84b53",
    (2, 7, "text"): "5e6c84a5df7b68f1e095fa560bf16ad88d33cf7a306a25f59045199016ca146a",
    (3, 4, "structured"): "02cc55d46dd082a2207b5dd64e32ca79493269c110ec72ee9d1b1f5c0c695e82",
    (3, 4, "text"): "4573d485b8d70b3c8b085b168abd2e6caa8023a69cf6d1c14db037bea4563bad",
    (3, 5, "structured"): "264216f0f79337757f0180bae6455494424c3212dc8f9963b038adabad730826",
    (3, 5, "text"): "1a3f2896cbc04e497c2a2e1eb2b038ebaa72c1b2f881abb9e6c16a0147960d90",
    (3, 6, "structured"): "cd04b4c360508c8c97c3d76415ff48ad2d77a3f7c3648e3b240ff08fe0fbd32f",
    (3, 6, "text"): "44265f224175bdcba70b33b1f9e78f5a50fe9f0976f9a1a4ab8b4f2677cbeec7",
    (3, 7, "structured"): "f02efd373471bcddde0f46aaacd633395d2605771687d4a9b131843a9a0a355b",
    (3, 7, "text"): "fe04e0b1461e254b2107a8e66413d0e33d93a344774bf089460830a1ebd6de48",
}


def forms_digest(out_dir: Path, seed: int, k: int, fmt: str) -> str:
    spec = fields.write_field(out_dir, k, seed)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["forms", "--format", fmt, "--field", str(spec.field_path),
                         "--lexicon", str(spec.lexicon_path)])
    assert code == 0
    return hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed, k, fmt", sorted(DIGESTS))
def test_forms_output_on_a_synthetic_field_is_pinned(tmp_path, seed, k, fmt):
    assert forms_digest(tmp_path, seed, k, fmt) == DIGESTS[seed, k, fmt]


if __name__ == "__main__":
    # print the table for DIGESTS: python tests/test_forms_digests.py
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for seed in (1, 2, 3):
            for k in (4, 5, 6, 7):
                for fmt in ("structured", "text"):
                    digest = forms_digest(Path(tmp) / f"{seed}-{k}", seed, k, fmt)
                    print(f'    ({seed}, {k}, "{fmt}"): "{digest}",')
