"""Golden export digests: every catalog entry's CLI graph exports, byte for byte.

Each digest is the sha256 of the concatenated stdout of `gen` at level 5 in
every format, `gen --simplicial` in the three simplicial formats, `pointed`
for two boundary points at level 5 and `ssg` at depth 4. The digests were
frozen from the library before its graph passes were rewritten on arrays,
so any change in labels, edge order or export text shows here.
"""

import contextlib
import hashlib
import io

import pytest

from selfsim import catalog_list, cli_main

LEVEL = 5
DEPTH = 4

GOLDEN = {
    "basilica": "6e9a3eddf5ab1922194fff555035a5106eb502a1b05f17b32ff1886ebd2ad1cd",
    "aleshin": "96562f733b048986a8fe0ac302a34a357758e23d6c9e5163d3509efc728cef9f",
    "aut882": "0067d7b3dfa9099c5cd0610c35271ffff1747f30a3f90c25b33536f2a86b2fdb",
    "aut878": "0124526a90b6cabc9decf1c8673a450f7d33dc07a230fec0e991eb5f9a8f3c85",
    "aut2853": "9ab98c8fe14fdfdc024d8528512a25a3a2e713ee73603c3725bf3fc4d85269ba",
    "z2": "75b9ac77820bb3dfbed36c5061e8f54f5e873d9d6e77ea704c38fa6cc1977413",
    "virtually-z3": "af270b482af6fb1b356c41e5ce47ace0c8abebb7316e69325489fbd51b408d3d",
    "half-basilica": "bdb30f282e876867876fbcb5542922eea0fd2555225256eed829943aad72f128",
    "lamplighter": "3b89140ea5fc590f7a13fe69ab42fa424e2dc311d55193b139ae85bbaf772390",
    "long-range": "115eecc35924998af59262d1dbda9f1f7dfb75c9ce24a77a42262ee65757600b",
    "sierpinski": "772a672333c2d400e5cd376afcbae320f6741caafea9665bf895b5830fd6e450",
    "sierpinski-alt": "3c6f68dec8f7ba4637f6c2451e195f7ccf609dfea469b24208f03f3683da8e05",
    "grigorchuk": "91c42bec94d95ca4a278685b0c8a3fed577f734fbbeb27d5eb2f9fcecb997227",
    "hanoi": "3cb08dadee20d0fc5e7b83ca157a4af256fd04adcbf7dd586f4f91321ef40623",
    "odometer": "f59bf3147455bd139709cb97244237111d23e2a97ab13481ad1fd092fe0239f6",
    "identity": "61765c47633d6ad7d135f6cd6552fde5e23f18f65408ac7211c0c1d2691c6907",
    "mother-1-2": "7ec6b3377e4a4ba24ad6b2533b183b6e6907275bbd74a99d09a833ea90396f54",
    "mother-1-3": "a4dc42762fadb01a10b678fa92b708d227c410561dbd82753557671d682e328c",
    "mother-2-2": "00d3b763b09f826694d387df6c93a04eed08c659d6033d3f05730abfdf4f082c",
    "mother-2-3": "c4b62a50189d9de1d8d86c11169140df5ed4548e5ee95164e82f12b2e9c170ab",
    "mother-3-2": "494bb1b0fe245175a992d705340f1a61de85c8e173cf7db0061cdf8b8fd81c47",
    "mother-3-3": "4dc217392bab3d305695304ec449e5cdc05043a5af1743eba8015177c3a7b111",
}


def _commands(key):
    src = ("--catalog", key)
    for fmt in ("edges", "dot", "graphml", "matrix"):
        yield ("gen", *src, "--level", str(LEVEL), "--format", fmt)
    for fmt in ("edges", "dot", "graphml"):
        yield ("gen", *src, "--level", str(LEVEL), "--simplicial", "--format", fmt)
    for xi in ("0^w", "10^w 1"):
        yield ("pointed", *src, "--xi", xi, "--level", str(LEVEL))
    yield ("ssg", *src, "--depth", str(DEPTH))


def export_digest(key):
    digest = hashlib.sha256()
    for argv in _commands(key):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(list(argv))
        assert code == 0, argv
        digest.update(out.getvalue().encode())
    return digest.hexdigest()


@pytest.mark.parametrize("key", [entry.key for entry in catalog_list()])
def test_exports_match_golden_digest(key):
    assert export_digest(key) == GOLDEN[key]
