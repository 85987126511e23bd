"""Golden output digests: one small CLI config per command.

Each case runs ``setlaw.cli.main`` in-process and pins the sha256 of every
file it writes plus what it prints.  A refactor that keeps these digests
is byte-identical on these configs; a change that moves one must say
which file moved and why.  Run this file as a script to print the current
digests in the form of ``GOLDEN``.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from setlaw.cli import EXIT_OK, main

CONFIGS = {
    "wlln": """\
command = wlln
seed = 42
family = ellipsoid_interval
a = 1
n_grid = 10,50
epsilon = 0.5
replications = 150
""",
    "slln": """\
command = slln
seed = 7
family = ellipsoid_interval
a = 1
block_dim = 8
max_n = 400
paths = 6
""",
    "sample-box2d": """\
command = sample
seed = 3
family = scaled_iid
body = box 2 -1.5 -0.25 0.75 2
grid_scheme = uniform_angles_2d
grid_count = 16
length = 7
""",
    "test-uncorr-box2d": """\
command = test-uncorr
seed = 5
family = scaled_iid
body = box 2 -1.5 -0.25 0.75 2
grid_scheme = uniform_angles_2d
grid_count = 32
length = 5
replications = 60
""",
    "hausdorff-1d": """\
command = hausdorff
body_a = interval 0 1.123456789
body_b = interval -0.25 3
""",
    "hausdorff-2d": """\
command = hausdorff
body_a = polytope 2 3 0 0 1.5 0.25 0.3 1.1
body_b = ellipsoid 2 0.2 -0.1 0.7 1.3
grid_scheme = uniform_angles_2d
grid_count = 64
""",
    "check-cond": """\
command = check-cond
family = ellipsoid_interval
a = 1,2
kind = slln_log2
length = 200
""",
    # several chunks per n (two full and a partial one), and the clamp at n = 3
    "wlln-600-regen": """\
command = wlln
seed = 11
family = ellipsoid_interval
a = 1,2
n_grid = 3,40,130
epsilon = 0.4
replications = 600
""",
    # a length that ends inside a block, and one that is a single block
    "wlln-600-block7": """\
command = wlln
seed = 12
family = ellipsoid_interval
a = 0.5,1.5
block_dim = 7
n_grid = 5,7,30
epsilon = 0.3
replications = 600
""",
    # non-dyadic semi-axes: the mean scales do not sum exactly, so a weak-law
    # target summed in another order moves the detail bytes
    "wlln-nondyadic-regen": """\
command = wlln
seed = 15
family = ellipsoid_interval
a = 0.3,1.7,1.1
n_grid = 3,17,130,1000
epsilon = 0.2
replications = 300
""",
    "wlln-nondyadic-block7": """\
command = wlln
seed = 16
family = ellipsoid_interval
a = 0.3,1.7,1.1
block_dim = 7
n_grid = 5,7,30,333
epsilon = 0.2
replications = 300
""",
    # an AR(1) scale with growth on a 2-D box: 16 support columns per body
    "wlln-ar1-box2d": """\
command = wlln
seed = 14
family = scaled_ar1
rho = 0.6
growth = 0.25
body = box 2 -1 -0.5 0.75 2
grid_scheme = uniform_angles_2d
grid_count = 16
n_grid = 4,60
epsilon = 0.3
replications = 300
""",
    # three strong-law chunks
    "slln-20": """\
command = slln
seed = 13
family = ellipsoid_interval
a = 1
block_dim = 5
max_n = 300
paths = 20
""",
    # 1-D uncorrelation tests: the support table of a family draw gives the
    # same bytes as the per-body support values
    "test-uncorr-interval-block4": """\
command = test-uncorr
seed = 21
family = ellipsoid_interval
a = 1,2,0.5
block_dim = 4
length = 6
replications = 500
""",
    "test-uncorr-ar1-interval": """\
command = test-uncorr
seed = 22
family = scaled_ar1
rho = 0.5
body = interval -1 2
length = 5
replications = 200
""",
}

# (config, --threads): wlln and slln run at 1 and 2 workers, which must agree
CASES = [("wlln", 1), ("wlln", 2), ("slln", 1), ("slln", 2), ("sample-box2d", 1),
         ("test-uncorr-box2d", 1), ("hausdorff-1d", 1), ("hausdorff-2d", 1),
         ("check-cond", 1), ("wlln-600-regen", 1), ("wlln-600-regen", 2),
         ("wlln-600-block7", 1), ("wlln-600-block7", 2),
         ("wlln-nondyadic-regen", 1), ("wlln-nondyadic-regen", 2),
         ("wlln-nondyadic-block7", 1), ("wlln-nondyadic-block7", 2), ("wlln-ar1-box2d", 1),
         ("wlln-ar1-box2d", 2), ("slln-20", 1), ("slln-20", 2),
         ("test-uncorr-interval-block4", 1), ("test-uncorr-ar1-interval", 1)]

GOLDEN = {
    'wlln': {
        'manifest.txt':
            '2e56779e170654de7b0e5dfdf27a57f5a893dadcde0eb4702f77b82e6d408e0e',
        'plot_bound.csv':
            '7c443d5d31fc86a2a5728a2ebe5aa95cf15ac808da9f103913dd277357744270',
        'plot_exceedance.csv':
            '7f2e6bff66d26073f10d62cda9668551e97eeeabba2ef38e9057e4d01822de81',
        'plot_mean_d_h.csv':
            'ba8d9b1ade0d43db5b5b89073574d6d3eac1a79d722779b2ab2c1877901ca17f',
        'wlln_detail.csv':
            'fc6e75fdc0d446586171d1e4562e64d7d51526baf2e620464c21d8265e9cbe8c',
        'wlln_summary.csv':
            '4f88e2f3bc7bcaccdf745ab8134463640ce3b712c9f11401c9e6ece51c2d3554',
        '<stdout>':
            '8bc250ce32932fc6bbbc376ff9cc67b79a17ffbed1d142a2aab186ae6bc1d59b',
    },
    'slln': {
        'manifest.txt':
            'bd902bb2fc7bd60517cf2ea22ef43eec1f9937a10053451967e6234dd6a9c0e6',
        'plot_interblock_mean.csv':
            '018dbcee8c761a04cc264440c77feca509cb5efe7cf519fa60cf115971a2e3a8',
        'plot_mean_s_n_over_n.csv':
            'a09cc4ce863d8a68de5a8f66a569de4587bf8cea301598920111c4c5f434ad86',
        'plot_square_mean.csv':
            'a09cc4ce863d8a68de5a8f66a569de4587bf8cea301598920111c4c5f434ad86',
        'slln_detail.csv':
            '7715c7d8ac01bcf8fbf0dcb0493c0a6844d1c6a2ba6a699af2fda4a3f4f47eef',
        'slln_summary.csv':
            'fa8633b642ddd9d99a981a228b2d7ccb1d2fd74194d40e572449479a7b6225ec',
        '<stdout>':
            'cee4f4b0171c7ae1b75f7d863af9f35874f46e1d168fe45ea2fd2b172bf86d59',
    },
    'sample-box2d': {
        'manifest.txt':
            '0f120ee686da4fac6b909a174323babc183d46c849cdbbe59d0a3a301449b1fe',
        'sample.txt':
            'f4c0bfa6abce7644140395511a6b0e29fd9554a0a83947dacb5d2741e1d506d7',
        '<stdout>':
            'f8764eb4a390b0882fa34cea91da72eef0384b60dd8bdbb438a7d2133c4a5c44',
    },
    'test-uncorr-box2d': {
        'manifest.txt':
            '73c51fb012df93fcaa4ad79ce92bc5e7f982bcc4cf20659de68f8018cf23ac9c',
        'uncorrelation.csv':
            '19802aca9e2fbd70e98d6582e611e66abaaa80ae93dab44eb4c8d925492a871a',
        '<stdout>':
            'd78ac286f98915ffe44ddf4b4281143fa2f757007f1eedf4bfa05d853fea8b18',
    },
    'hausdorff-1d': {
        'manifest.txt':
            'd6da7b1e8e79369501562170f732cb0cc74ce28826c644241fb0d883d4db868a',
        '<stdout>':
            '154b862e09f1972f4d9b2d17dbd67b1796b486a3394501ac4129242555dfb0ce',
    },
    'hausdorff-2d': {
        'manifest.txt':
            '1ae345776df4fad54644bb04ffdbcc2136eea66f572e36f5b9eb779fe49dbb9b',
        '<stdout>':
            '5a8d25ddabdfc584ae9574a8c46f7fe30d80486329fe1d26d2fab5a7faf00de4',
    },
    'check-cond': {
        'condition.csv':
            '48c352ddc6eded6620779e32fc8cfd573f13fcd6213ef77e6a83f6d5c3876b00',
        'manifest.txt':
            '274b1a3981eddbe3ea5828e59d78f13e0202f2554175b1f1bfa6ff5e79bc2212',
        '<stdout>':
            '66082032b585cc21d4e3da4365d0055f1579287505ba5487a8d13ac6c3b06b85',
    },
    'wlln-600-regen': {
        'manifest.txt':
            '43031dacd9311c32098bd6cd3c6f4573850168cdebc2192c232890f327f60b65',
        'plot_bound.csv':
            '3bc723de614b57ee4ec6e99f60e834a829b1a0d9338f45c3384f8bf06e7a6307',
        'plot_exceedance.csv':
            'fa89e5718342b8fba7e392327c5101e6a316794ea7506d8277b875ade5ebc566',
        'plot_mean_d_h.csv':
            'd855aa7133dd6fc2da2864fc080ce615a896e6107218594facde1d042ca78631',
        'wlln_detail.csv':
            'f8de79f5107414d3b551a031278794a1a87f4a28f1112b63262517bded2912e5',
        'wlln_summary.csv':
            '0c8f38242d0c4ac658d97f9a69dd55b6e21fae5d52b7ac63bf02a31dc946c019',
        '<stdout>':
            '4ca0c4eb1b7eabdb99b3765954dfcdf36e671473e4452b78358048711e74971e',
    },
    'wlln-600-block7': {
        'manifest.txt':
            'eb8351b02ece90069f384dec20aff6e75b41dc69eb475b51c0c916a1182136a8',
        'plot_bound.csv':
            'ac2c5e39476a50ee90e91f6a444d38528b905a36cdcad7e54e568b75ce390335',
        'plot_exceedance.csv':
            'cdbb194b62a512450bb262db60ddd8daac84b55c2d6a2a978cba3a7dc08d34af',
        'plot_mean_d_h.csv':
            '827b3097b308eea86870eca2d6fa0af3545d3d35e0bb791147b8a3f2d4363424',
        'wlln_detail.csv':
            '3b06d709d17c4f0ee8b2207820c7b18f1e77126a0a384b486dca36d052911692',
        'wlln_summary.csv':
            'a48206966003632778120c31432dcc2352f92fc3d6adc345c30dd60a2a9c2ae7',
        '<stdout>':
            '232bcdb06e0228756aa2a6a59c25231f96069d80e96db6554f4ef3b5a60fdd9b',
    },
    'wlln-nondyadic-regen': {
        'manifest.txt':
            '4a1b41de84470caac9331d63d6026ff521f6aafe8332dfa35e507b5dd03504f2',
        'plot_bound.csv':
            'b4b72e37358782b6a8e65b1b557b8ccbcc5c5d01bac930da7c596f12101992c9',
        'plot_exceedance.csv':
            'cec1b9be8b489cea53ee9abddd9240f461359b2a6c9971f560152e616f148cb4',
        'plot_mean_d_h.csv':
            'ed65838869f550d5cb9f4f12dce99a230ab2cecbb6895860b16221641ec1c816',
        'wlln_detail.csv':
            '83cda6564ea42dc03cdb17ecbd7c2b8245a2b4cf0cb704a41fd5e7fff204adf3',
        'wlln_summary.csv':
            '64df076eb15aa5a7b9c938292e8496544521074c9b977857f37672d44fb5cc22',
        '<stdout>':
            '36a8d39a4f91f0e00fe723ede71064ff05aecf1c36f0f1c82dd54a8b2ba5e55a',
    },
    'wlln-nondyadic-block7': {
        'manifest.txt':
            'f7cc1d03d3c3a5639a2160531695d742b97c8691ac69ef3959b57a531a828a4e',
        'plot_bound.csv':
            '9a4eb29682479ddc2109fab747f394470bc596b9d965f2154c8100fb4c9a9628',
        'plot_exceedance.csv':
            '26a3655a7e183246fbf869d1f9897ad1e3d0a94c0f7416ebe5d16ead9a312de8',
        'plot_mean_d_h.csv':
            '6b71561a8e3c4ae71cb4c5e06d126329ed666d97ec24c62a0ff499453c0f24be',
        'wlln_detail.csv':
            '006105b74c35811d5c3e38952b37173979dcf4984505034957367b1acc1c3da3',
        'wlln_summary.csv':
            '827fadf022ae1251ea60909f6e24f833504b67cd2daf315acd6d259b3127b959',
        '<stdout>':
            '2aa86b39e661450bfa8fd814e63c65d22d1f5db64bc4635259ba7136f06b5cdc',
    },
    'wlln-ar1-box2d': {
        'manifest.txt':
            '5e27ddf1d889a81d6e995e16574b55c3238e46e9c218e50f8da338198f9cb894',
        'plot_exceedance.csv':
            '5717d66ea4e1b87a6b4ae13db5733d3ce2ff8fc2595071d3c6db5704a942f6be',
        'plot_mean_d_h.csv':
            '8e00a0e553009e31c1bc09a7f1841362c7acb0cfcf56c51bae1af0935b1a8835',
        'wlln_detail.csv':
            '19ed2d6465675f3fd5c59699352257b21fbe28fcef4ca025f9cb0b0637fcef54',
        'wlln_summary.csv':
            '939c2c78877b6483d08beedecb817b45377240290599f35b27e5b997cbec3ba3',
        '<stdout>':
            'c46822fc466b116f419e270771555f46220f6b01ac8a04012e92d47d5ba2aad4',
    },
    'slln-20': {
        'manifest.txt':
            '34f8ac98741300fee21ce44b9288d54e9f57fade2ee08951a3594c58a5e66854',
        'plot_interblock_mean.csv':
            'cc33f0fc49e2891039b2f1122e0a86ab29b37cacb61f1e2bf75b767972b24924',
        'plot_mean_s_n_over_n.csv':
            'fe4bb26d8a28774ecf41419a0b894300c3ee9967ff82595fdc3eb3466d2cbee3',
        'plot_square_mean.csv':
            'fcda7e8fa5d199ea5a36e8f292e1fcb628db9c72e059e7656f8fbba3ec79cc98',
        'slln_detail.csv':
            'c4fde92bbc6cfe167c135fad45f786122e78d7dd3d37c3245459a1cbc3845e98',
        'slln_summary.csv':
            '554cc5efa4f7f4a8e6ec4c9471a91123ae21dd145ab507b379d73711d585132c',
        '<stdout>':
            'a97a3948f065cb244538d10b3c56a202f4d802eb807c3909084031368f89c491',
    },
    'test-uncorr-interval-block4': {
        'manifest.txt':
            'dfafe0b78c5c23b4631a2d17d9c0a3195d6264aea2f01f3cc4124cf795cd0303',
        'uncorrelation.csv':
            '085b6072ef927d0a027194c6a2b2f04f0f22f278644c1dc642c9bfd4ef8278e1',
        '<stdout>':
            '750fcb1cb020aebb88a936c1ce03c51283a757c1aea295ceb597983912cfa95e',
    },
    'test-uncorr-ar1-interval': {
        'manifest.txt':
            '215392d3c3935a550ea4237b9e7115e3645af8d7f0fd8007c5cf940811dad62f',
        'uncorrelation.csv':
            '63c2c406576c2432a79ef6de3838437af47ab60f67247a829ce63e6eedcfdd9c',
        '<stdout>':
            'f40ec05af62602fd4135a05d4a3a1885d50fa3246471fa100667aa7258b46379',
    },
}


def _digests(name: str, threads: int, work: Path) -> dict[str, str]:
    cfg = work / f"{name}.cfg"
    cfg.write_text(CONFIGS[name], encoding="utf-8")
    out = work / f"{name}-t{threads}"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["--config", str(cfg), "--out", str(out), "--threads", str(threads)])
    assert rc == EXIT_OK
    found = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.iterdir())}
    # the sample command prints its output path; keep only what does not vary
    printed = buf.getvalue().replace(str(out), "<out>")
    found["<stdout>"] = hashlib.sha256(printed.encode("utf-8")).hexdigest()
    return found


@pytest.mark.parametrize("name,threads", CASES)
def test_golden_digests(name, threads, tmp_path):
    assert _digests(name, threads, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_line_ends(name, tmp_path):
    """Every CSV ends each line in CRLF, as the csv module writes; text files use LF."""
    _digests(name, 1, tmp_path)
    for path in (tmp_path / f"{name}-t1").iterdir():
        data = path.read_bytes()
        if path.suffix == ".csv":
            bare = data.replace(b"\r\n", b"")
            assert data.endswith(b"\r\n") and b"\n" not in bare, path.name
            assert b"\r" not in bare, path.name
        else:
            assert path.name in ("manifest.txt", "sample.txt"), path.name
            assert data.endswith(b"\n") and b"\r" not in data, path.name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {}
        for name, threads in CASES:
            got = _digests(name, threads, Path(tmp))
            if table.setdefault(name, got) != got:
                sys.exit(f"{name}: digests differ between thread counts")
    print("GOLDEN = {")
    for name, files in table.items():
        print(f"    {name!r}: {{")
        for fname, digest in files.items():
            print(f"        {fname!r}:\n            {digest!r},")
        print("    },")
    print("}")
