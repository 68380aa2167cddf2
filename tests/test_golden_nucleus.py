"""Golden nucleus and equivalence digests: CLI `nucleus` and `equiv` output and
equivalence classes, byte for byte.

Each command digest is the sha256 of one CLI stdout: `nucleus` on the
catalog entries the benchmark runs, with the same bounds, and `equiv` on
three benchmark queries plus three more `basilica` pairs, one of them not
equivalent. Each class digest is the sha256 of the sorted class members of
every sample point of a catalog entry, one line per point. The digests were
frozen from the library before its cycle and liveness passes were rewritten,
so any change in nucleus order, names, depth, verdicts, witnesses or class
members shows here.
"""

import contextlib
import hashlib
import io

import pytest

from selfsim import cli_main, equivalence_class

from .test_limits import _nucleus, _sample_points

GOLDEN_COMMANDS = {
    ("nucleus", "--catalog", "aleshin", "--max-elements", "300"): "9c1b35b95a5fe7d6b0fa6d4d42e8fdbdd02910fc210419e7daa4900f8d9760a7",
    ("nucleus", "--catalog", "aut2853"): "36635f2ba712b83c386ef80fe9c71f3d5d361db5e592a7fa0c8827106e3909f8",
    ("nucleus", "--catalog", "aut878"): "5fdbc7843af267b82054bf04d542c27404f9398629225348d942d4b6ba9570ba",
    ("nucleus", "--catalog", "basilica"): "e9b0b27c4ef51b97ee1d91172bfa380a81976927e6b62d01b06212ad319585ca",
    ("nucleus", "--catalog", "grigorchuk"): "81d1cfcb50db81818606a0453603f7164a698aa08ef1b456b81cd88a1390094e",
    ("nucleus", "--catalog", "half-basilica"): "f18df9694b84ac3bde17a17e5cd14a1b570d1b617199a1daa197221fb72aaec0",
    ("nucleus", "--catalog", "hanoi"): "6dbe5b86c9aa9ef9adecf7c57cbe35fc38aa0a72eb81982f9cede8f415e243a5",
    ("nucleus", "--catalog", "identity"): "cff45ca5e526ae62ec586da2f3629064e104f544af118d6374b719714c4bdf9d",
    ("nucleus", "--catalog", "lamplighter", "--max-elements", "300"): "9c1b35b95a5fe7d6b0fa6d4d42e8fdbdd02910fc210419e7daa4900f8d9760a7",
    ("nucleus", "--catalog", "long-range", "--max-elements", "200"): "d2db9bbe17e2a7ca755b336aa0fe0b3448580d8cb861ed671542aa9cb596cc31",
    ("nucleus", "--catalog", "odometer"): "449cc9c5ff65971f15b5a105ce47e4f1175e19eab487b9ebaf25aa86bb695d81",
    ("nucleus", "--catalog", "sierpinski"): "87c64a952e0589e5e616cd89f521ad34654695b8952513dc391d9d8c5e61b26b",
    ("nucleus", "--catalog", "sierpinski-alt"): "37867eaff3f8e7b31e420fd46f95d07008aea95f39573d34030d089cf41463cf",
    ("nucleus", "--catalog", "virtually-z3"): "c9f29fee99570f1a2b7b53301a2bbbd4b98135fd9fedc5df4680c6863d226e0d",
    ("nucleus", "--catalog", "z2"): "22bfdfeb908c6d4802507fe84e03cc87d7d07c056908af87050d8eef6d1cb5c3",
    ("equiv", "--catalog", "basilica", "01^w", "10^w"): "be27b1e6236fe462f35eb24ecc75f36566d4ded199695ace79f469aece8a7a61",
    ("equiv", "--catalog", "odometer", "0^w", "1^w"): "aa818f4cfbf2a63e10d049361e6e45b25fafaa8dd0cbbc7b98e730337080c56f",
    ("equiv", "--catalog", "z2", "0^w", "1^w"): "d68868a29d0ae539d3188930f3235c19cc2fe9823aa6f1f64969a7dd0a58901e",
    ("equiv", "--catalog", "basilica", "0^w 1", "10^w 0"): "f5a8a58bd1d914675ee6fa6d18bfcb4f11601bc3cc361b12e90eb63318b24764",
    ("equiv", "--catalog", "basilica", "01^w 11", "0^w 11"): "d42b3cf9ec471edc14e998c47223a3aac3e8b953d66b2abae82bffa24a434018",
    ("equiv", "--catalog", "basilica", "1^w", "0^w"): "39d9085478b9516a4781139ea0c5a778db0388835f5f8a7328578dda34b8ace9",
}

GOLDEN_CLASSES = {
    "odometer": "1ae0048c70ac6b18d8f43bbf0e18865375916ee01ffadb69ebe74e493ea747ee",
    "basilica": "5dc2c3e2c74c110904cf00d588f9b0b262d5521220db8302342b9c51fd04f2da",
    "grigorchuk": "f283f3cf5c89eb35d6e9f529ff328b342abf31aa940614a0bd75414db513c053",
}


def command_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(list(argv))
    assert code == 0, argv
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def class_digest(key):
    _, nuc = _nucleus(key)
    lines = [
        str(p) + ": " + ", ".join(sorted(map(str, equivalence_class(nuc, p))))
        for p in _sample_points()
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("argv", list(GOLDEN_COMMANDS), ids=" ".join)
def test_command_matches_golden_digest(argv):
    assert command_digest(argv) == GOLDEN_COMMANDS[argv]


@pytest.mark.parametrize("key", list(GOLDEN_CLASSES))
def test_equivalence_classes_match_golden_digest(key):
    assert class_digest(key) == GOLDEN_CLASSES[key]
