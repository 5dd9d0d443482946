"""The CLI goldens: what each command must print, in one registry.

An entry is the sha256 of the stdout that its commands print (None where
only the exit code counts), the commands, split as a shell splits them,
their exit code, the sha256 of each file they write (`{tmp}` is a scratch
directory), an environment and a timeout in seconds.  `FAST` entries run in
under 0.5 s in process, and tier-1 runs them through `cli.main`
(tests/test_cli.py).  `python tests/golden_cli.py` runs every entry of
`FAST` and `SLOW` through the console script under its timeout, prints a
line per run with the actual digest of each mismatch, and exits 1 if any
run differs.
"""

import hashlib
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple


class Golden(NamedTuple):
    stdout: str | None
    commands: list
    exit: int = 0
    files: dict = {}
    env: dict = {}
    timeout: float = 10


# these two run again in SLOW under fixed hash seeds: no output depends on
# hash order.  Neighbor solves that add by Zech logarithms in F_(3^8), and
# verify at the largest q of the key-identity rows
_ZECH_GRAPH = Golden("c6e6fd50b30df598901daa48f89ff8e76ab7f6936a62bc2da0c361ac04b9f0d6", ['graph --q 3 --prime "T^4+T+2" --format json'])
_VERIFY_Q9 = Golden("bb613c619f54d012b663733b6b77c62c4a2480919baa3abe607bf20c410126c5", ["verify --q 9 --max-degree 2", "verify --q 9 --max-degree 2 --format text"], timeout=20)

FAST = [
    # the README examples; the first prints the same h by every route
    Golden("111686c478eeacfcfd5af3ce4b93c90fb215e8bb27fa0f541d2e69d7c6748501", [
        'compute --q 2 --prime "T^2+T+1" --var delta --method universal',
        'compute --q 2 --prime "T^2+T+1" --var delta --method grec',
        'compute --q 2 --prime "T^2+T+1" --var delta --method direct']),
    Golden("99ea406f3bb3aca66fdc4a81e1f2a17fcde869c6ab7368341df97a84729ee32c", ['compute --q 2 --prime "T^2+T+1" --method all']),
    Golden("794b5b397aebef3dc695050402f50cc1250723799e45609141e53144eda6d3e4", ['compute --q 2 --prime "T^2+T+1" --var lambda --method direct']),
    Golden("b14e5331e7fe1edf6c339a892a0efaaec232b4596bac46711d80833bcd108766", ["verify --q 2 --max-degree 3"]),
    Golden("d0d5f5558975f1ad6e9b8bf04028354a6572d52cdc95a2d4fad590309ae7b74a", ['graph --q 3 --prime "T-1" --dot {tmp}/graph.dot'],
           files={"{tmp}/graph.dot": "19df06812e699b4f4b4689768c15b3960d415474c8ecc8d03ec6a9c324b8ffd9"}),
    Golden("c36da969ea91157697dc9c07267a36afc742ce809d18927a80916351013b9518", ["identities --q 4"]),
    # every route as JSON at the first d = 4 prime for q = 2 and q = 3
    Golden("aa17aeae99addf0cebfeb503dd1b1072743a1ba2ca38be6f260708d187aad79a", ['compute --q 2 --prime "T^4 + T + 1" --method all --format json']),
    Golden("bac8ce46669c64a6db56dadd226add5d227798f23aa6fca1a6ec6fb6d22aecf1", ['compute --q 3 --prime "T^4 + T + 2" --method all --format json']),
    # h at the first (2,12) prime by every route, and H there, of degree
    # 2^13 - 2
    Golden("d89b221daae4509cb98881c065e1c8af525a1b5a8bf1f76a6ef4f6f0ec3d8e5c", [
        'compute --q 2 --prime "T^12+T^3+1" --var delta --method direct',
        'compute --q 2 --prime "T^12+T^3+1" --var delta --method universal',
        'compute --q 2 --prime "T^12+T^3+1" --var delta --method grec']),
    Golden("b8eb7babb575f10542fdcad8b61e88d95e0d3d421eaa30ee2cc18ee78024a475", ['compute --q 2 --prime "T^12+T^3+1" --var lambda --method universal']),
    # the routes agree (MATCH) on kappa with Zech-logarithm sums
    Golden("7b5db36e2d30d826c070e6a8196b48a312916d0b833ba746ee15f03e07837b94", ['compute --q 3 --prime "T^8+T^2+2" --method all']),
    Golden("bc82701d56507a187320cb7c1bd82fb9c5ae975039c19f11f63963ce7f5953eb", ['compute --q 9 --prime "T^3+T+x" --method all']),
    # h of degree 21,845 on the 2^8 digit masks of a (4,8) prime, where grec
    # runs in kappa[eps]/(eps^2)
    Golden("933f7dfc82c863550b4c33e1459263a90380506a70c81c26c78a570aec7ec08c", [
        'compute --q 4 --prime "T^8+T^3+T+x" --var delta --method direct',
        'compute --q 4 --prime "T^8+T^3+T+x" --var delta --method grec']),
    # H of degree q^2 - q at a degree-one prime: one level of the composition
    Golden("c2ad1907d166c67e91ae2238117c16642c5c343ed17651c858a1dd48dba940da", ['compute --q 64 --prime "T+1" --var lambda --method all']),
    # H of degree 262,080, composed on one packed int with no field product
    Golden("fb5ab2d49e00042cd2ca71ec8214362c406a041a32120d3853c498e30672f450", ['compute --q 64 --prime "T^2+T+x^5" --var lambda --method grec']),
    # H of degree 531,360, the largest odd-characteristic H, in y = s^80
    Golden("68539e3e3f8e767fa91ff1579152a7256948d351ff4c222480159a95742d65f2", ['compute --q 81 --prime "T^2+x" --var lambda --method grec']),
    # text for --var delta builds no H, whose degree is 169^3 - 169
    Golden("3e0e455e5d808af86f1cbc5eb850757ad0e76b8198aa89b20779b7178b99e7c6", ['compute --q 169 --prime "T^2+x" --method all']),
    # prime fields add by Zech logarithms; F_65521's table has 65,520 entries
    Golden("ed5eef6391a2b634a2fc03f250d7b65bb95c44916f39125b1710c34c06e3e5fc", ['compute --q 251 --prime "T+3" --var lambda --format json']),
    Golden("7e83dc429a15b3b4a190b58a6f1f8a44d49cf48f12a1e10b99f70059d512a9da", ['compute --q 65521 --prime "T+5" --method all']),
    # H rendered from the coordinate tables of kappa over F_3
    Golden("fade7d396fb97a945bcc2261ba3619bb32ec08203989f9d7aa7c63fad2888fe6", ['compute --q 3 --prime "T^9+2*T^3+T^2+1" --format json --method grec']),
    # H rendered from the coordinate tables of kappa over F_4 over F_2, each
    # of its 87,382 coefficients through the field's memo of texts: about 3x
    # its time, where rendering every coefficient anew took 1.3-2.5 s
    Golden("a06dbd679a8a3b6413a13a903934628cf24295fc89ca73f243a6482ea7eed005", ['compute --q 4 --prime "T^8+T^3+T+x" --var lambda --method grec'], timeout=1.2),
    # verify for q in {2, 3, 4, 5} in both formats, and the key-identity rows
    # at q > 5
    Golden("6dc289d8e2fa292882453ac88e8fd988c13d807bcd0f7b27fde242f01848edd9", ["verify --q 2 --max-degree 4 --format text"]),
    Golden("7fc5bfe6142cc3cc70207ff9f7d55e0a8e8f14ffb7d7af4b2f45103143dfb0c2", ["verify --q 2 --max-degree 4 --format json"]),
    Golden("157578ff5fd5e6132591e4f7a862164d07245c09be2cc067bf0549c0b0a47826", ["verify --q 3 --max-degree 3 --format text"]),
    Golden("4eb9becf14da9af015260d064c0e078ed38b6cb6af2037ea9996fbaf9805c09a", ["verify --q 3 --max-degree 3 --format json"]),
    Golden("8a5bc204b6a8647b6abcbbe1521fccd5b819ea204fdc13315acf53dc1fa26011", ["verify --q 4 --max-degree 2 --format text"]),
    Golden("eb29aeedae71b0307e105f43276e492b06e3fab1e3337fe1ddfc858288d07e99", ["verify --q 4 --max-degree 2 --format json"]),
    Golden("c793a9f9a557f76e0a555b90c265db6b08c8361e85b2c434a33294622281a614", ["verify --q 5 --max-degree 2 --format text"]),
    Golden("d84eb8d2059abf7a8d70bd0a79767c4cdb93d88961b90f6b04154d63a5170ffd", ["verify --q 5 --max-degree 2 --format json"]),
    Golden("9acdecaf74ad6f09847bca7caba56991ebcab88689ac5a12986ff2daaf724f76", ["verify --q 7 --max-degree 2 --format text"]),
    Golden("a77eafb535226ed153d3ade3fde3c02dfce76d4156c3780292c0e20de65b287d", ["verify --q 8 --max-degree 2 --format text"]),
    _VERIFY_Q9,
    # a prime field whose Frobenius map runs by square-and-multiply
    Golden("c451de5c5981531230fcf4e8d1ad9c181efe02484d9d0c9e49145c802709edc0", ["verify --q 13 --max-degree 2"]),
    # H at each (25, 2) prime has degree 15,600 and is a polynomial in s^24
    Golden("6de1343c1d2a246c35354b13b63cd395d8e43f2f2eaac8f6b1403f82f3ed8fc3", ["verify --q 25 --max-degree 2"]),
    # every prime of degree <= 8 at q = 2; sizes the sweep grid does not
    # reach, with U over kappa in y = s^(q-1) and u on digit masks
    Golden("041ac0d4f74b6c3bc85110f36a37b490d31f0933ad101f49fd5607221a61485d", ["verify --q 2 --max-degree 8"], timeout=20),
    Golden("3836669d5723781682a4effaa952c667f5354e5796d23fe5d62f3b5d527439ce", ["verify --q 4 --max-degree 5"]),
    Golden("1f895e1a74dddc2e603e98ed2581c8316d70b37272e3b1fd6492deda4cafc98c", ["verify --q 3 --max-degree 6"]),
    # graphs outside verify's envelope; the q = 9 one needs kappa_2
    Golden("0ede2ef120d6d3febf2eef66db4a084b0fac0751fdcc8a4808a9698b3b9925e7", ['graph --q 2 --prime "T^5 + T^2 + 1"']),
    Golden("a68007c7329fbf750630c106c1cbce87c1dc9af6d34d1c264f5c9817a8cbfdfb", ['graph --q 2 --prime "T^5 + T^2 + 1" --format json']),
    Golden("8701103e975035bbb30df82aaffdbbc1cba10d7e0f5389088b0d865ccb29aeb0", ['graph --q 3 --prime "T^3 + 2*T + 1"']),
    Golden("2d6c3b48444a0b823496b34db22a38bb9e52c726f510483555dacc154370ec30", ['graph --q 9 --prime "T^2 + x + 1"']),
    # 255 vertices in kappa_2 = F_(2^16), each walked by one right-hand side
    # against a map factored once, each target a root of h by the u-recurrence
    Golden("03eaf1f5f5d46df156bdf9dcf3015aa8ba31b0c8b66355cde569fe7f7de94b3b", ['graph --q 2 --prime "T^8+T^4+T^3+T^2+1"'], timeout=20),
    Golden("8b42ddd255a584fe9d90a252105b859faaffdecf0a5287e03e814f74b1816526", ['graph --q 2 --prime "T^8+T^4+T^3+T^2+1" --format json'], timeout=20),
    # graphs without h: at odd d the walk starts at Delta = -alpha; at even d
    # at the first root of a scan over kappa's elements, where this (16, 2)
    # prime has one, although its least root in kappa_2 is 10,266 indices in
    Golden("82434f7095f998fa298cc6608313b4f5974b823664d0d283432a40ea74d8bfbc", ['graph --q 2 --prime "T^7+T^6+T^4+T^2+1" --format json']),
    Golden("2996f7b63fdb51b261759a98b369db2f1eccd4ce803784c95ae40ab93f000693", ['graph --q 16 --prime "T^2+(x^3+x^2+x)*T+x^3+1" --format json']),
    _ZECH_GRAPH,
    Golden("d488eaadd34347a361bd2ebfd311ee3d375b7fba9436bdbf516bf6f6073bcdb9", ['graph --q 9 --prime "T^2+T+x" --format json']),
    # at even d over an odd F_q the walk starts at a CM point, found by at
    # most two linear solves
    Golden("1bebc842e645f070a0c0e39aea8aaa42cd8698102ffeefa9ab4493ec2c56686a", ['graph --q 11 --prime "T^2+1" --format json']),
    # V^q - V = c against one map per graph: at odd d in kappa_2 = F_(5^6),
    # at even d in F_(7^4), and at q = 25
    Golden("8eb20c97540a2666adc582adcf7271a4d7d9d9ba64c1147e81a52f232fcfabcc", ['graph --q 5 --prime "T^3+T+1" --format json']),
    Golden("df575817cde543adaa8f5dc9e67b79699bbd368062b9ca17f4b4e72447c69882", ['graph --q 7 --prime "T^2+1" --format json']),
    Golden("aaecd6ea22e1289780aef5ebb113bbff60395aa1e51cca10f03c519f24a3d712", ['graph --q 25 --prime "T+x" --format json']),
    # the largest odd kappa_2 under the cap, F_(3^10), walked on index chunks
    # of five base-3 digits
    Golden("09105a7994d5769b5d098db1e5c220a48c97b71eb24a6a925b483ceec73571eb", ['graph --q 3 --prime "T^5+2*T+1" --format json']),
    # kappa_2 = F_(2^16) from the modulus search over kappa = F_256 over F_16
    Golden("db22213fb09540c67c9eb8f12e6602c397f1a2342a35a1b15d84437c1dd8a773", ['graph --q 16 --prime "T^2+T+x^3" --format json']),
    # kappa_2 = F_(4^8) over kappa = F_(4^4), at the cap: 85 vertices
    Golden("465d83bc36629dec30728b09ef4de8964f52e98b43c31338025cf037c60dce33", ['graph --q 4 --prime "T^4+T^2+x*T+1" --format json']),
    Golden("261912acedbf73b0ec5ea78d10e3c96da2994523f618f44ea513ca6221868ba1", ["identities --q 16 --format json"]),
    Golden("3b7cef38b9f1fb7d7483fd4cf576f2f6abb8a8428c06a7510ed6adc4e302f4cc", ["identities --q 32 --format json"]),
    # out-of-cap --max-degree and --q, a kappa_2 over the cap, and a q over
    # the tower identities' budget of 64 exit 2 at once
    Golden(None, ["verify --q 2 --max-degree 10000000000"], exit=2),
    Golden(None, ['compute --q 1000000007 --prime "T+1"'], exit=2),
    Golden(None, ['graph --q 2 --prime "T^9+T^4+1"'], exit=2),
    Golden(None, ["identities --q 128"], exit=2),
]

SLOW = [
    # h at a cap-degree prime over F_2, kappa = F_(2^16), by every route:
    # direct on packed 16-bit slots, universal from generic u_16's T-exponents
    Golden("12681cc7c4383b60bbe985deaa24018669322c79638f96406a1ac2ae24b9a6be", [
        'compute --q 2 --prime "T^16+T^5+T^3+T^2+1" --var delta --method grec',
        'compute --q 2 --prime "T^16+T^5+T^3+T^2+1" --var delta --method direct',
        'compute --q 2 --prime "T^16+T^5+T^3+T^2+1" --var delta --method universal']),
    # every prime of degree <= 10 and <= 11 at q = 2; the second within
    # about 3x its time, on index tuples from route to comparison
    Golden("72b88694ef010c854c9a061d99470cac8d5975a8fd5bd21ad0c11a611120538c", ["verify --q 2 --max-degree 10"], timeout=30),
    Golden("5b6411ac02be8491fa78cc3b9f05a0598e21572316e0c0b481fa0cfc92a597b3", ["verify --q 2 --max-degree 11"], timeout=4),
    # the U-recurrence over kappa, one product per step, is most of the run
    Golden("79aadf902539b4e424a9c54809e951fc202dcbe185a9dcbb46240d3939da4e80", ["verify --q 4 --max-degree 6"], timeout=20),
    # the g-structure rows divide each g_k by an h with 4 nonzero
    # coefficients of 34, through its (position, log) row
    Golden("2c9eb2f8a8451b623dcb7f781c7a2425e9190e4be260421d7edd8c5dc9021a33", ["verify --q 32 --max-degree 2"], timeout=20),
    # odd-q identities are the dense MultiPoly sums that sum_copies keeps its
    # card x card table path for
    Golden("9ef0126548d8f69096bd78bedc1d07e350420fbb099eb6b60109b0e85474a772", ["identities --q 61 --format json"], timeout=20),
    *[entry._replace(commands=entry.commands[:1], env={"PYTHONHASHSEED": seed})
      for entry in (_ZECH_GRAPH, _VERIFY_Q9) for seed in "01"],
]


def argv(command, tmp):
    """The argument list of a command, `{tmp}` read as the directory tmp."""
    return shlex.split(command.replace("{tmp}", tmp))


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def mismatches(entry, code, stdout, tmp):
    """Where a run's exit code, stdout bytes and files written under tmp
    differ from the entry, each with its actual value."""
    found = [] if code == entry.exit else [f"exit {code}, expected {entry.exit}"]
    if entry.stdout and _sha256(stdout) != entry.stdout:
        found.append(f"stdout sha256 {_sha256(stdout)}")
    for path, digest in entry.files.items():
        path = pathlib.Path(path.replace("{tmp}", tmp))
        actual = _sha256(path.read_bytes()) if path.exists() else "missing"
        if actual != digest:
            found.append(f"{path} sha256 {actual}")
    return found


def _run(entry, command):
    """(seconds, mismatches) of one run of the console script."""
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                ["drinfeld-deuring", *argv(command, tmp)], capture_output=True,
                env={**os.environ, **entry.env}, timeout=entry.timeout)
        except subprocess.TimeoutExpired:
            return entry.timeout, [f"timed out after {entry.timeout} s"]
        found = mismatches(entry, proc.returncode, proc.stdout, tmp)
        if found and proc.stderr:
            found.append(proc.stderr.decode(errors="replace").strip())
        return time.perf_counter() - start, found


def main():
    failed = 0
    for entry in FAST + SLOW:
        for command in entry.commands:
            seconds, found = _run(entry, command)
            failed += bool(found)
            env = "".join(f"{name}={value} " for name, value in entry.env.items())
            print(f"{'FAIL' if found else 'ok':4} {seconds:6.2f} s  {env}{command}",
                  *(f"    {line}" for line in found), sep="\n", flush=True)
    print(f"{failed} of {sum(len(e.commands) for e in FAST + SLOW)} runs differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
