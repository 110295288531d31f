"""Output corpus: the bytes of a fixed grid of CLI calls, pinned.

Each call runs in-process through cli.main on a shipped config whose
num_microbatches is rewritten. Its exit code and the sha256 of its stdout
and of every file it writes are pinned in CORPUS_PINS, so a change to any
simulate, compare, allocate or sweep output fails here. The pins were
recorded once from the program as it stood when this module was added; a
change that alters these bytes must say so.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from afpipe.cli import main
from afpipe.config import ScheduleKind

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MICROBATCHES = (1, 2, 3, 32)
# Per sweep axis, its values on each config. virtual_stages 14 does not
# divide toy's 4 layers, so that call exits 2, as does a --mem-cap of 0.
SWEEPS = {
    "seq_len": "512,4096",
    "virtual_stages": "2,14",
    "attn_gpu_share": "0.25,0.5",
}


def _grid() -> dict[str, tuple[str, int, list[str], tuple[str, ...]]]:
    """Each call by name: (config, micro-batches, argv after --config, the files it names)."""
    grid = {}
    for config in ("toy", "deepseek_moe"):
        for mb in MICROBATCHES:
            for kind in ScheduleKind:
                grid[f"simulate-{config}-{kind.value}-{mb}"] = (
                    config, mb, ["simulate", "--schedule", kind.value,
                                 "--out", "report.json", "--trace", "trace.json"],
                    ("report.json", "trace.json"))
            grid[f"compare-{config}-{mb}"] = (
                config, mb, ["compare", "--out", "report.json"], ("report.json",))
        grid[f"allocate-{config}-8"] = (
            config, 8, ["allocate", "--out", "alloc.json", "--trace-csv", "alloc.csv"],
            ("alloc.json", "alloc.csv"))
        for axis, values in SWEEPS.items():
            grid[f"sweep-{config}-{axis}"] = (
                config, 4, ["sweep", "--axis", axis, "--values", values], ())
    grid["simulate-toy-mem-cap-0"] = ("toy", 4, ["simulate", "--mem-cap", "0"], ())
    return grid


GRID = _grid()


def run_call(name: str, root: Path) -> tuple[int, str, dict[str, str]]:
    """Run call name of GRID with its files in root: (exit code, stdout sha256, file sha256s)."""
    config, mb, argv, files = GRID[name]
    path = root / f"{config}-{mb}.yaml"
    if not path.exists():
        text = (CONFIGS / f"{config}.yaml").read_text(encoding="utf-8")
        lines = [f"  num_microbatches: {mb}" if line.startswith("  num_microbatches:") else line
                 for line in text.splitlines()]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = root / name
    out.mkdir()
    argv = [str(out / arg) if arg in files else arg for arg in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main([argv[0], "--config", str(path), *argv[1:]])
    digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return code, digest, {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                          for f in sorted(out.iterdir())}


CORPUS_PINS: dict[str, tuple[int, str, dict[str, str]]] = {
    "simulate-toy-afpipe-1": (
        0, "d4810114e3255979ac7e4831760445c714df16b7cdd1741db7b27c05e94c9f0c", {
            "report.json": "2db74f29272634eb72268e32250ee272259f03753597dabaaa152597d6898318",
            "trace.json": "178a12ae54cae922cd165817514c487025a4ce0811856107bcfa98e780b5ac28",
        }),
    "simulate-toy-megatron1f1b-1": (
        0, "07cf0206f273375acb51381cd67c850283d5d04aef92e16ea881bc809491732a", {
            "report.json": "af1a1585b408e9dcc2785cb2b3ce541964d6c54a6143daf9311f54521596cda3",
            "trace.json": "f6ef38e95d974eca71d8bc63cdb5cf0b2a4294e877c3f992ea652f8d0d41eb35",
        }),
    "simulate-toy-chunked-1": (
        0, "d60bdd7cb9cdc86c48c0588d1201a4344a46dfe41189816d8a89f764ec411567", {
            "report.json": "c1493a389abf207f5a97f7d0d0623a809f77eb7730d487bc344569d8848f3405",
            "trace.json": "5819369a77d04b434f1bdf7d1c6a7cc114e51844233df5c34989fdb08190684b",
        }),
    "simulate-toy-naive-1": (
        0, "258bab815f131f204cd54df11fa21a19ebaf380d2b169ce9cd6b49df0b59d1b5", {
            "report.json": "269205f3314b727fe803b1ccc4d6642df3ab85e7f4d42841c6a0f1807bf3876e",
            "trace.json": "188eb5ef6a5c004604e80644e9a71be0e63300aa9c9a8ee12ba99dc0aeea0d42",
        }),
    "compare-toy-1": (
        0, "101ac0b39164f1ee32ddae6465b5c8361f55ea9f2d816105fc42e544cf93e7ba", {
            "report.json": "f8f627d7ecf769f49dfb93b0eae2d1cb2118a25a079691cd80a1e932edf37c72",
        }),
    "simulate-toy-afpipe-2": (
        0, "597d46dfe18ca376b0cbd505a2ece165d8745cc12e3517457fac5f0a6381b3e6", {
            "report.json": "87b1ba2b32ddf85098c00c40ccd3e20306431cfb3012d355efc42cfa446d0549",
            "trace.json": "94da8984c190b57ef56a8d479c520c191ccd1fad01172cd224e880120b0e0901",
        }),
    "simulate-toy-megatron1f1b-2": (
        0, "43881f91d0a7f9c9dfe817a19bc35f9df753b6673754ad89be6dbc1d3431df52", {
            "report.json": "0206add09ee6ec1b4a49faebe248e11b5820aa529fc1b24572d7f2d6c7f2db6b",
            "trace.json": "e40ea2560bb3524ccbb937b41661e2ad6023fd9e890133a473bac0a2e8e15519",
        }),
    "simulate-toy-chunked-2": (
        0, "7f201632eb833b15cd2e98d253e3199dfcb038c2764a8c1d524b70222d80a09e", {
            "report.json": "ac38aded44962e3db88e25921cb17090582501f74cd792a7d6abeb0a7873abdb",
            "trace.json": "146a1bd49f4423ca72aa6ef0ac0ccdb0479f3c48f468157f6d93f21537e6ecf7",
        }),
    "simulate-toy-naive-2": (
        0, "8d933e1417776894d510c5f1e6bd23b28e70978a4a1255c9fc2ab8c7c7c2d0e1", {
            "report.json": "84a865da6f78608550c5bb6d6cccc19cf81267460947dad125265e988d8f53a7",
            "trace.json": "fa5905b75b437172eefa3d86b03a0ef4df27f599e073556e7585c907b1bb7252",
        }),
    "compare-toy-2": (
        0, "c1e1985129892239c81d411084706012371007169a51394914b9793a8c2c8b01", {
            "report.json": "6a8a588377671732bfcb809c738024cdfcb0e46b10f4c3c433b40874fc2f2345",
        }),
    "simulate-toy-afpipe-3": (
        0, "7fe32919d1163cf97138f4b39914b48a144f6aa8e107fd4f46670c2d8fbd1b1e", {
            "report.json": "a0b46516b3dba05a7bf658c3673ebc29c72ff2f40e0dcf7e9f0da079bf98b48d",
            "trace.json": "2f13f8489d065cbd433e3e7509e2d0f1a770d631502ffe9952d46fd3a09711cb",
        }),
    "simulate-toy-megatron1f1b-3": (
        0, "340f02b7582dac1f219a94f62945676c406011f13951e8525b24348cf2ae2a0e", {
            "report.json": "664f568969c1afc3960cf50b8f9e6fbcf371bf418a6084cf485566449ba65072",
            "trace.json": "54782cea32f155337541c972f108c2c0c2a5787cab76476df3e423384f282400",
        }),
    "simulate-toy-chunked-3": (
        0, "a9e5a7f699c6b201f7da76293dcb13bc5d4e1778c830cbe1a1b882e6c1ebfc7a", {
            "report.json": "8f99a9fc03eb21312fad4848be3f82713e9fd311a4c6b1c47d51165d1fed1725",
            "trace.json": "65c05eae3c17be13e26e09343fd917d105f475beb51e1e9097b36756ec265145",
        }),
    "simulate-toy-naive-3": (
        0, "64daaae83dcb6437c4ba50b37e072e45f8c21e3735cd71dc5ca53c99b0066dac", {
            "report.json": "f7907b26cb4954c649f88cb394e145c9b266422388989381b55f3048136ac1f9",
            "trace.json": "15394ab5d81da0819e7f9b7993166fa326049ce44210dffc7ac60d7ec6c95dee",
        }),
    "compare-toy-3": (
        0, "b2196f99c0f37e88b24e3beea3cefa9a451d959b4e1be5d8ab30d90b2429453f", {
            "report.json": "c992706313677c3181a8e0c84ca530a4f8073953031312c34774a16e8c8ed5b9",
        }),
    "simulate-toy-afpipe-32": (
        0, "5f7d8b616149a903530b6b6594905cc34a26d0fea490108d73b3119f0af6c7ae", {
            "report.json": "314f535ae8d1a84b8d2cbc8cb8035177af64bf0531ec72aa5ee21b658498262c",
            "trace.json": "b8b7b47c7ca9e7f3640f7aa18be356cc20db54616246d3f694f144fbf2e55f22",
        }),
    "simulate-toy-megatron1f1b-32": (
        0, "0a7e6809f7fc37030a64af67aede5fcfd006c8778698df78c09a283af386c4a8", {
            "report.json": "37d538f9a5022905c806e2190a81bfcf87e1599d4aa7b1ef1cee2a1978036ced",
            "trace.json": "ac474172a1342815e3b84044e93c70069e607edaa4269d0ac220abfafaf597c9",
        }),
    "simulate-toy-chunked-32": (
        0, "9c1c01333a26cc70d2505cf4dfccdcc80743ddb9842b85a9237d8fbbc903e89f", {
            "report.json": "901ef0aded162f6864b720c399831cb01c11e473fb74a41f97d7222e1e352e84",
            "trace.json": "d59a1ff43a216d925aecaac86f35bb50c52c2bed686331a69d67890f2c05e592",
        }),
    "simulate-toy-naive-32": (
        0, "e4de5f94ade8fef48bbec411396df7d36c9a65cce9ac7bc69ebe319ac6404b84", {
            "report.json": "183d585026a4f0e1f64924126fe7f99b59a555ef13a0d11f87e7ddfdf861c284",
            "trace.json": "a996cd1815a3a7a378d4444c6e9634625ba725724d20db3afa0e2ee3709e92fe",
        }),
    "compare-toy-32": (
        0, "acc92f75bde23ce1affbd70ecbddb672229d1539ff13ec898c6953e23822f975", {
            "report.json": "04bbbbd023f524bafbd450e0cce653dbad7f7095574f37a7e2512cee0404a4f9",
        }),
    "allocate-toy-8": (
        0, "afe07992f9a7239afeec07d7a9ad0594aa20faba6084f9d335b4f3739519d4c1", {
            "alloc.csv": "1997931e4e699697d818b7dc30984b29b72c750025eb891b3cc4ca1d3e90b331",
            "alloc.json": "ba39dd781ec0979fff56bada8aea5257b74f0f296d1a2c8526359a3eca262c3d",
        }),
    "sweep-toy-seq_len": (
        0, "a7e2bacea8f1b053ead5972d4d1499ec7b0916364102866c7df6dec82d034e78", {}),
    "sweep-toy-virtual_stages": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {}),
    "sweep-toy-attn_gpu_share": (
        0, "b971851df35befdd6986d9a7bbfc02fbf9c46aa6f40c0ec713dd1fd15659cc0b", {}),
    "simulate-deepseek_moe-afpipe-1": (
        0, "a9d260d74279b456c07b830f161ec7907138e128ed29662bc3a8b8bd503500e2", {
            "report.json": "c13684d771e65fac5c0f28624996d12c64f266cce0a2e53b359cbf3a621d7fb2",
            "trace.json": "1d587f746b29c3eefdf7b0e0a42aaa9681cd77d45e434747a2fe369c9f1abb1f",
        }),
    "simulate-deepseek_moe-megatron1f1b-1": (
        0, "68c3c267e6dfe487711633c9358295ddd339a3e5745774cfc235ac5d9039a369", {
            "report.json": "7b2be55a28338ac34e816977f1e10c2e3af44b24088ff68fe27cf05d78501e55",
            "trace.json": "0473e506b5d0e09d17fe38c6c1d43e5463256ef3b588cbeb34785288700eb86a",
        }),
    "simulate-deepseek_moe-chunked-1": (
        0, "67cdbceaead3f9fcfc2e8ebc3455d6c165e77cb57353524235ce687f3124df7e", {
            "report.json": "8c0f0d6e5b6fea1e4fbd3e9ae961cf0c0f330637164cd9c9f3da7d3f4b01de8b",
            "trace.json": "af0bbe7193e136bd0886b7a6f594fcf3931c191cacb6584c666c7e96e80ba79b",
        }),
    "simulate-deepseek_moe-naive-1": (
        0, "1dbfc8c53638ced72388d1055008547d0cfe7acc5b41098d56872d4780b4675d", {
            "report.json": "0b14cbffdd7762738cdf0d8b26d27f0d2295552adf2371e251ae365ebd07cd40",
            "trace.json": "0caa48198256c94d64f61bded1d0f4258ff94d080f6326cb22ddbe49eefad197",
        }),
    "compare-deepseek_moe-1": (
        0, "33bbddfd1babe0d6051783cac961bbf00075d9662e0cb6cf93fd5333cf9fffa3", {
            "report.json": "04b37948230e3e25ea7eddf58a72a6e36ffbc83561ecbc6b6d74ecf3d32f5723",
        }),
    "simulate-deepseek_moe-afpipe-2": (
        0, "2cf941f3c6f605dc901d99643898d36c421bab18dc6d291d7fa96c3dff5871a6", {
            "report.json": "31b65dc48731737dfbc8e02501bb219be52897457fd919f748836e803485ed4a",
            "trace.json": "c670d83eb2be20a15822b4fd5331ea67e873580adae701df25c19f6bdeba7307",
        }),
    "simulate-deepseek_moe-megatron1f1b-2": (
        0, "f6437dc6f431f16a73f44dbb2dc42c06a8b20d9f922b21e85b9761c524bbd72f", {
            "report.json": "c626b9169687e814728f260b554b116f7353ff90ab2a897f33cb46f18d25cc18",
            "trace.json": "2219f3ce97bd344e248fbd1c3431dfc6d059e5cd561ef5594b8aeb05eecefe2c",
        }),
    "simulate-deepseek_moe-chunked-2": (
        0, "f8e92a54621954b5450f4182a7639d2aff094a054424aad8849f3a7c976b4ab0", {
            "report.json": "0a57a2a5f50a5078245d8ef8abb8088f41c253c89f5e0bc607b33d1fc9b9c416",
            "trace.json": "3fdf04cc9f639639ea4efdd9cc43defd4a95a7fa763da44b040407f676442bee",
        }),
    "simulate-deepseek_moe-naive-2": (
        0, "78c5b308db100785f15181a6f853d08c28ee9defb1d397425e1fa382ca83f3d8", {
            "report.json": "186555f4932699283491e299e84ff2e7c5338b1064bc2b3dafa855d9668ff278",
            "trace.json": "b4dcf6be96ab1dd6c019d6c5863638a3bfb2fa01434fa908726b654f07ae6765",
        }),
    "compare-deepseek_moe-2": (
        0, "e40e269855eeba53de50bc346380c40bd244d7217756447a8d1240a9290e59c3", {
            "report.json": "664c4c5a93c876342adcf45ecc020db957952c798a3c8204ff829ce075abffff",
        }),
    "simulate-deepseek_moe-afpipe-3": (
        0, "f0de226c400903a8035c13ec00975543f3641f5f4b0db4a2c8e80c2eb37a60d5", {
            "report.json": "783fd8baebc50ef278931016e83cc31aef30657abcb934f698ff5d4bff330cae",
            "trace.json": "2e8a1000e3969073f242f9efbf9d9e6e4d425eb0f67c0498f2b8940d5c87fecd",
        }),
    "simulate-deepseek_moe-megatron1f1b-3": (
        0, "325ce30bf699ab25706bcf703bb94f135009238f90a81eddac5ec01c4412b2a8", {
            "report.json": "2bb932028ad848964e3d6dbde15fd9cf1c46a34ee88d44759353945735602f01",
            "trace.json": "707f57d2b2b695be3546f1ea5e4875536d7b57fb6a409533ed0b46017892d25b",
        }),
    "simulate-deepseek_moe-chunked-3": (
        0, "cbb6a6921c5af696f473f219a88485fc51db1781edf155486385cf78fb8cca81", {
            "report.json": "72900da801cbe09fcf21c99ca9bfd160b5fc8213d48752436529a801dcc66d3f",
            "trace.json": "af269beb91c8ba43c0ee375a123d58caefcf0da480a5379f7c18f4479c2adf02",
        }),
    "simulate-deepseek_moe-naive-3": (
        0, "a2872665e86467c4f99ece60728d24557ca948b7dac27f49f1e060da59a28233", {
            "report.json": "8008f3ed4f73906bbc58a4ce33f95bd26c7cdf1eaf9625ff68252207d0d6f7b2",
            "trace.json": "7d4f49018502c02eaa33f42fc4fae7f2698b540d95cff3f7b3eeb507d276a3c2",
        }),
    "compare-deepseek_moe-3": (
        0, "fbc2f325911aa481335a869c040db4b2d94b6b40ec78b7fe67ba28fac56979ac", {
            "report.json": "0b9d276f314de8b646383d903ec86a112d58623936e82e249a21ae9dc4d8adf4",
        }),
    "simulate-deepseek_moe-afpipe-32": (
        0, "44978f5dee48de8c6ca5a010522ce25260b99cecee4ff28d1b9f53c404bd43b5", {
            "report.json": "5819e3f22631661b36d61bc90ac45c3c71c49f7b28a753d8e1a945029d3cba4f",
            "trace.json": "c3cd6c79e053c1728ef0a2c8b9abf35c4da08d94333da196e435faa3b6ccbb53",
        }),
    "simulate-deepseek_moe-megatron1f1b-32": (
        0, "5cdd4d7fcaf024affa4ade5de87c97ee724ecf3c612bf1dfda6af26c6fbc817e", {
            "report.json": "e99f54b0abd4c84c53f8cc9714785c0e90764aee555383b56cf9e68559427ec0",
            "trace.json": "2991c5cb32a5efdadf849ef9a355dba681cf4e328f18e1b3a42371e1a2fe0fb5",
        }),
    "simulate-deepseek_moe-chunked-32": (
        0, "cf3e76de495e1fcc0831c0e44e5e18a449e29527c4cdb7477d5b18b42c5e6297", {
            "report.json": "0be856850cc387f4f440282635a8168d2b63b65203667ce1ca6769fea74681ff",
            "trace.json": "ebe8147ad4949e3647845667a3f3bb1d560d3c4e0ed453958614ac5006b38a98",
        }),
    "simulate-deepseek_moe-naive-32": (
        0, "545ec34542b36f281588433243c43f5fdd580dac0c3656083e2f6fbb364d7317", {
            "report.json": "4d5a8eda31398eb5a50f6616f2e5460736746938b0f9a7a6e1d77ff19fefc53e",
            "trace.json": "2dfa8a8d81265a5e13f66f436277f7bd489f9288a96de921df4098b0edcd0d21",
        }),
    "compare-deepseek_moe-32": (
        0, "33b6b1bece5f9286e9e0103a746f5318ff4139116d17be72652a14d1ec1ac427", {
            "report.json": "8621d04d1ec945a55c0190d873f9c8bca0afb5e5475353a2238cb45e4c90daf0",
        }),
    "allocate-deepseek_moe-8": (
        0, "b7494082588ff5ad5b0ea16e0411a21bc9ef6cfd08ab12eca4cc9f4ee3622a4b", {
            "alloc.csv": "dc43a7353473154e39f7caadc4e3f2a0484b425414e2a6463d1d4541b905f447",
            "alloc.json": "8907b1d0fab96f87f7f4086378af96ec2d77a2f3cd54278bb1c3f9ccc88a6566",
        }),
    "sweep-deepseek_moe-seq_len": (
        0, "e56971a0c8cd04442dd5d7fcdca64412472be76b15758d0d4836eec06847b32b", {}),
    "sweep-deepseek_moe-virtual_stages": (
        0, "7d06ec1c988bb387fd204b6cf5ccb412c06b365e1f884dbb121df12779ddbc09", {}),
    "sweep-deepseek_moe-attn_gpu_share": (
        0, "60ea3afff5b9d0ae4ba64fafc76405f99fa65a9c353b583eb6cb3e4e0bd65296", {}),
    "simulate-toy-mem-cap-0": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {}),
}


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus")


@pytest.mark.parametrize("name", list(GRID))
def test_output_is_pinned(root, name):
    assert run_call(name, root) == CORPUS_PINS[name]


def test_every_call_is_pinned():
    assert list(CORPUS_PINS) == list(GRID)
