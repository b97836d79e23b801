#!/usr/bin/env python3
"""Regenerate the bundled data files under src/gecedit/data/.

Run from the repository root:

    PYTHONPATH=src python tools/build_data.py

The verb lexicon combines hand-listed irregular paradigms with
orthographically generated regular paradigms; the default tagset's append and
replace inventories are the top slices of the frequency-ranked word list
assembled below.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "src" / "gecedit" / "data"

sys.path.insert(0, str(REPO / "src"))

from gecedit.lexicon import PATTERN_FILES, Lexicon  # noqa: E402
from gecedit.noiser import OPERATIONS, literal_ly_safe, literal_suffix_safe  # noqa: E402
from gecedit.transforms import VOWELS, pluralize  # noqa: E402

# --------------------------------------------------------------------------
# Verbs
# --------------------------------------------------------------------------

# lemma: (VBD, VBG, VBN, VBZ)
IRREGULAR_VERBS = {
    "arise": ("arose", "arising", "arisen", "arises"),
    "awake": ("awoke", "awaking", "awoken", "awakes"),
    "be": ("was", "being", "been", "is"),
    "bear": ("bore", "bearing", "borne", "bears"),
    "beat": ("beat", "beating", "beaten", "beats"),
    "become": ("became", "becoming", "become", "becomes"),
    "begin": ("began", "beginning", "begun", "begins"),
    "bend": ("bent", "bending", "bent", "bends"),
    "bet": ("bet", "betting", "bet", "bets"),
    "bind": ("bound", "binding", "bound", "binds"),
    "bite": ("bit", "biting", "bitten", "bites"),
    "bleed": ("bled", "bleeding", "bled", "bleeds"),
    "blow": ("blew", "blowing", "blown", "blows"),
    "break": ("broke", "breaking", "broken", "breaks"),
    "breed": ("bred", "breeding", "bred", "breeds"),
    "bring": ("brought", "bringing", "brought", "brings"),
    "build": ("built", "building", "built", "builds"),
    "burst": ("burst", "bursting", "burst", "bursts"),
    "buy": ("bought", "buying", "bought", "buys"),
    "cast": ("cast", "casting", "cast", "casts"),
    "catch": ("caught", "catching", "caught", "catches"),
    "choose": ("chose", "choosing", "chosen", "chooses"),
    "cling": ("clung", "clinging", "clung", "clings"),
    "come": ("came", "coming", "come", "comes"),
    "cost": ("cost", "costing", "cost", "costs"),
    "creep": ("crept", "creeping", "crept", "creeps"),
    "cut": ("cut", "cutting", "cut", "cuts"),
    "deal": ("dealt", "dealing", "dealt", "deals"),
    "dig": ("dug", "digging", "dug", "digs"),
    "do": ("did", "doing", "done", "does"),
    "draw": ("drew", "drawing", "drawn", "draws"),
    "drink": ("drank", "drinking", "drunk", "drinks"),
    "drive": ("drove", "driving", "driven", "drives"),
    "eat": ("ate", "eating", "eaten", "eats"),
    "fall": ("fell", "falling", "fallen", "falls"),
    "feed": ("fed", "feeding", "fed", "feeds"),
    "feel": ("felt", "feeling", "felt", "feels"),
    "fight": ("fought", "fighting", "fought", "fights"),
    "find": ("found", "finding", "found", "finds"),
    "flee": ("fled", "fleeing", "fled", "flees"),
    "fly": ("flew", "flying", "flown", "flies"),
    "forbid": ("forbade", "forbidding", "forbidden", "forbids"),
    "forget": ("forgot", "forgetting", "forgotten", "forgets"),
    "forgive": ("forgave", "forgiving", "forgiven", "forgives"),
    "freeze": ("froze", "freezing", "frozen", "freezes"),
    "get": ("got", "getting", "got", "gets"),
    "give": ("gave", "giving", "given", "gives"),
    "go": ("went", "going", "gone", "goes"),
    "grow": ("grew", "growing", "grown", "grows"),
    "hang": ("hung", "hanging", "hung", "hangs"),
    "have": ("had", "having", "had", "has"),
    "hear": ("heard", "hearing", "heard", "hears"),
    "hide": ("hid", "hiding", "hidden", "hides"),
    "hit": ("hit", "hitting", "hit", "hits"),
    "hold": ("held", "holding", "held", "holds"),
    "hurt": ("hurt", "hurting", "hurt", "hurts"),
    "keep": ("kept", "keeping", "kept", "keeps"),
    "kneel": ("knelt", "kneeling", "knelt", "kneels"),
    "know": ("knew", "knowing", "known", "knows"),
    "lay": ("laid", "laying", "laid", "lays"),
    "lead": ("led", "leading", "led", "leads"),
    "leave": ("left", "leaving", "left", "leaves"),
    "lend": ("lent", "lending", "lent", "lends"),
    "let": ("let", "letting", "let", "lets"),
    "lie": ("lay", "lying", "lain", "lies"),
    "light": ("lit", "lighting", "lit", "lights"),
    "lose": ("lost", "losing", "lost", "loses"),
    "make": ("made", "making", "made", "makes"),
    "mean": ("meant", "meaning", "meant", "means"),
    "meet": ("met", "meeting", "met", "meets"),
    "overcome": ("overcame", "overcoming", "overcome", "overcomes"),
    "pay": ("paid", "paying", "paid", "pays"),
    "prove": ("proved", "proving", "proven", "proves"),
    "put": ("put", "putting", "put", "puts"),
    "quit": ("quit", "quitting", "quit", "quits"),
    "read": ("read", "reading", "read", "reads"),
    "ride": ("rode", "riding", "ridden", "rides"),
    "ring": ("rang", "ringing", "rung", "rings"),
    "rise": ("rose", "rising", "risen", "rises"),
    "run": ("ran", "running", "run", "runs"),
    "say": ("said", "saying", "said", "says"),
    "see": ("saw", "seeing", "seen", "sees"),
    "seek": ("sought", "seeking", "sought", "seeks"),
    "sell": ("sold", "selling", "sold", "sells"),
    "send": ("sent", "sending", "sent", "sends"),
    "set": ("set", "setting", "set", "sets"),
    "shake": ("shook", "shaking", "shaken", "shakes"),
    "shine": ("shone", "shining", "shone", "shines"),
    "shoot": ("shot", "shooting", "shot", "shoots"),
    "show": ("showed", "showing", "shown", "shows"),
    "shrink": ("shrank", "shrinking", "shrunk", "shrinks"),
    "shut": ("shut", "shutting", "shut", "shuts"),
    "sing": ("sang", "singing", "sung", "sings"),
    "sink": ("sank", "sinking", "sunk", "sinks"),
    "sit": ("sat", "sitting", "sat", "sits"),
    "sleep": ("slept", "sleeping", "slept", "sleeps"),
    "slide": ("slid", "sliding", "slid", "slides"),
    "speak": ("spoke", "speaking", "spoken", "speaks"),
    "spend": ("spent", "spending", "spent", "spends"),
    "spin": ("spun", "spinning", "spun", "spins"),
    "spit": ("spat", "spitting", "spat", "spits"),
    "split": ("split", "splitting", "split", "splits"),
    "spread": ("spread", "spreading", "spread", "spreads"),
    "spring": ("sprang", "springing", "sprung", "springs"),
    "stand": ("stood", "standing", "stood", "stands"),
    "steal": ("stole", "stealing", "stolen", "steals"),
    "stick": ("stuck", "sticking", "stuck", "sticks"),
    "sting": ("stung", "stinging", "stung", "stings"),
    "strike": ("struck", "striking", "struck", "strikes"),
    "strive": ("strove", "striving", "striven", "strives"),
    "swear": ("swore", "swearing", "sworn", "swears"),
    "sweep": ("swept", "sweeping", "swept", "sweeps"),
    "swell": ("swelled", "swelling", "swollen", "swells"),
    "swim": ("swam", "swimming", "swum", "swims"),
    "swing": ("swung", "swinging", "swung", "swings"),
    "take": ("took", "taking", "taken", "takes"),
    "teach": ("taught", "teaching", "taught", "teaches"),
    "tear": ("tore", "tearing", "torn", "tears"),
    "tell": ("told", "telling", "told", "tells"),
    "think": ("thought", "thinking", "thought", "thinks"),
    "throw": ("threw", "throwing", "thrown", "throws"),
    "undergo": ("underwent", "undergoing", "undergone", "undergoes"),
    "understand": ("understood", "understanding", "understood", "understands"),
    "undertake": ("undertook", "undertaking", "undertaken", "undertakes"),
    "upset": ("upset", "upsetting", "upset", "upsets"),
    "wake": ("woke", "waking", "woken", "wakes"),
    "wear": ("wore", "wearing", "worn", "wears"),
    "weave": ("wove", "weaving", "woven", "weaves"),
    "weep": ("wept", "weeping", "wept", "weeps"),
    "win": ("won", "winning", "won", "wins"),
    "wind": ("wound", "winding", "wound", "winds"),
    "withdraw": ("withdrew", "withdrawing", "withdrawn", "withdraws"),
    "write": ("wrote", "writing", "written", "writes"),
}

# Regular meaning, but the final consonant doubles before -ed/-ing.
DOUBLING_VERBS = [
    "admit", "ban", "beg", "chat", "chop", "clap", "commit", "control", "dim",
    "drag", "drop", "drum", "equip", "flip", "grab", "grin", "grip", "hop",
    "hug", "jam", "jog", "knit", "map", "mop", "nod", "occur", "pat", "permit",
    "pin", "plan", "plot", "plug", "prefer", "refer", "regret", "rob", "rub",
    "scan", "shop", "skip", "slam", "slip", "snap", "spot", "step", "stir", "stop",
    "stun", "submit", "tap", "trap", "trim", "whip", "wrap", "zip",
]

# Plain orthographic rules apply cleanly (no consonant doubling).
REGULAR_VERBS = [
    "accept", "add", "agree", "aim", "allow", "announce", "answer", "appear",
    "apply", "argue", "arrange", "arrive", "ask", "assume", "attack",
    "attempt", "attend", "avoid", "bake", "balance", "behave", "believe",
    "belong", "borrow", "bother", "bounce", "breathe", "brush", "burn",
    "call", "calm", "care", "carry", "cause", "celebrate", "challenge",
    "change", "charge", "chase", "check", "cheer", "claim", "clean", "clear",
    "climb", "close", "collect", "combine", "compare", "compete", "complain",
    "complete", "concern", "confirm", "connect", "consider", "contain",
    "continue", "cook", "copy", "correct", "cough", "count", "cover",
    "crash", "create", "cross", "cry", "damage", "dance", "dare", "decide",
    "declare", "decrease", "defend", "delay", "deliver", "demand", "deny",
    "depend", "describe", "deserve", "design", "destroy", "develop", "die",
    "disagree", "discover", "discuss", "divide", "double", "doubt", "dream",
    "dress", "dry", "earn", "echo", "edit", "educate", "employ",
    "encourage", "end", "enjoy", "enter", "escape", "estimate", "examine",
    "exist", "expand", "expect", "explain", "explore", "express", "extend",
    "face", "fail", "fear", "fetch", "fill", "finish", "fix", "float",
    "flow", "focus", "fold", "follow", "force", "form", "gain", "gather",
    "glance", "greet", "guard", "guess", "guide", "handle", "happen",
    "hate", "help", "hope", "hunt", "hurry", "identify", "ignore",
    "imagine", "improve", "include", "increase", "influence", "inform",
    "injure", "intend", "introduce", "invent", "invite", "involve", "join",
    "joke", "judge", "jump", "kick", "kill", "kiss", "knock", "lack",
    "land", "last", "laugh", "launch", "learn", "lift", "like", "listen",
    "live", "load", "lock", "look", "love", "manage", "march", "mark",
    "marry", "match", "matter", "measure", "mention", "miss", "mix",
    "move", "multiply", "name", "need", "notice", "obey", "observe",
    "obtain", "offer", "open", "order", "owe", "own", "pack", "paint",
    "pass", "pause", "perform", "pick", "place", "play", "please", "point",
    "pour", "practice", "praise", "pray", "prepare", "present", "press",
    "pretend", "prevent", "print", "produce", "promise", "protect",
    "provide", "pull", "punish", "push", "race", "rain", "raise", "reach",
    "realize", "receive", "recognize", "record", "reduce", "reflect",
    "refuse", "relax", "release", "rely", "remain", "remember", "remind",
    "remove", "rent", "repair", "repeat", "replace", "reply", "report",
    "represent", "request", "require", "rescue", "respect", "respond",
    "rest", "return", "review", "reward", "roll", "rush", "sail", "save",
    "search", "seem", "select", "serve", "settle", "share", "shout",
    "sigh", "sign", "smile", "smoke", "solve", "sort", "sound", "spell",
    "stare", "start", "state", "stay", "study", "succeed", "suffer",
    "suggest", "supply", "support", "suppose", "surprise", "surround",
    "survive", "talk", "taste", "test", "thank", "tie", "touch", "train",
    "travel", "treat", "trust", "try", "turn", "type", "use", "visit",
    "vote", "wait", "walk", "want", "warn", "wash", "watch", "wave",
    "welcome", "whisper", "wish", "wonder", "work", "worry", "yell",
]


def _vbz(v: str) -> str:
    if v.endswith(("s", "x", "z", "ch", "sh")):
        return v + "es"
    if v.endswith("y") and v[-2] not in VOWELS:
        return v[:-1] + "ies"
    if v.endswith("o") and v[-2] not in VOWELS:
        return v + "es"
    return v + "s"


def _vbd(v: str) -> str:
    if v.endswith("e"):
        return v + "d"
    if v.endswith("y") and v[-2] not in VOWELS:
        return v[:-1] + "ied"
    return v + "ed"


def _vbg(v: str) -> str:
    if v.endswith("ie"):
        return v[:-2] + "ying"
    if v.endswith("e") and not v.endswith(("ee", "oe", "ye")):
        return v[:-1] + "ing"
    return v + "ing"


def build_verbs() -> dict[str, tuple[str, str, str, str]]:
    verbs: dict[str, tuple[str, str, str, str]] = dict(IRREGULAR_VERBS)
    for v in DOUBLING_VERBS:
        stem = v + v[-1]
        entry = (stem + "ed", stem + "ing", stem + "ed", _vbz(v))
        assert v not in verbs, v
        verbs[v] = entry
    for v in REGULAR_VERBS:
        assert v not in verbs, v
        verbs[v] = (_vbd(v), _vbg(v), _vbd(v), _vbz(v))
    return dict(sorted(verbs.items()))


# --------------------------------------------------------------------------
# Nouns and irregular plurals
# --------------------------------------------------------------------------

IRREGULAR_PLURALS = [
    ("analysis", "analyses"),
    ("appendix", "appendices"),
    ("axis", "axes"),
    ("bacterium", "bacteria"),
    ("basis", "bases"),
    ("cactus", "cacti"),
    ("calf", "calves"),
    ("child", "children"),
    ("crisis", "crises"),
    ("criterion", "criteria"),
    ("curriculum", "curricula"),
    ("datum", "data"),
    ("echo", "echoes"),
    ("elf", "elves"),
    ("foot", "feet"),
    ("fungus", "fungi"),
    ("goose", "geese"),
    ("half", "halves"),
    ("hero", "heroes"),
    ("hypothesis", "hypotheses"),
    ("index", "indices"),
    ("knife", "knives"),
    ("leaf", "leaves"),
    ("life", "lives"),
    ("loaf", "loaves"),
    ("man", "men"),
    ("matrix", "matrices"),
    ("medium", "media"),
    ("mouse", "mice"),
    ("nucleus", "nuclei"),
    ("ox", "oxen"),
    ("person", "people"),
    ("phenomenon", "phenomena"),
    ("potato", "potatoes"),
    ("scarf", "scarves"),
    ("self", "selves"),
    ("shelf", "shelves"),
    ("stimulus", "stimuli"),
    ("stomach", "stomachs"),
    ("syllabus", "syllabi"),
    ("thesis", "theses"),
    ("thief", "thieves"),
    ("tomato", "tomatoes"),
    ("tooth", "teeth"),
    ("vertex", "vertices"),
    ("wife", "wives"),
    ("wolf", "wolves"),
    ("woman", "women"),
]

NOUNS = [
    "actor", "afternoon", "age", "agent", "airport", "album", "animal",
    "answer", "apartment", "apple", "area", "argument", "arm", "army",
    "article", "artist", "aunt", "author", "baby", "bag", "ball", "banana",
    "band", "bank", "bath", "battle", "beach", "bed", "bedroom", "bell",
    "bench", "bicycle", "bill", "bird", "birthday", "boat", "body", "bone",
    "book", "border", "boss", "bottle", "bowl", "box", "boy", "brain",
    "branch", "bread", "breakfast", "bridge", "brother", "budget",
    "building", "bus", "business", "button", "cake", "camera", "camp",
    "candle", "captain", "car", "card", "career", "carpet", "cat",
    "ceiling", "cell", "center", "century", "chair", "chance", "chapter",
    "character", "chicken", "church", "cinema", "circle", "citizen",
    "city", "class", "classroom", "client", "clock", "cloud", "club",
    "coach", "coast", "coat", "coffee", "college", "color", "column",
    "comment", "community", "company", "computer", "concert", "contract",
    "corner", "country", "couple", "course", "court", "cousin", "cow",
    "crowd", "cup", "customer", "dad", "daughter", "day", "decade",
    "decision", "degree", "desk", "detail", "device", "dinner",
    "direction", "doctor", "document", "dog", "dollar", "door", "dream",
    "dress", "driver", "duty", "ear", "earth", "edge", "editor", "effect",
    "effort", "egg", "election", "emotion", "employee", "employer",
    "engine", "engineer", "error", "evening", "event", "example", "eye",
    "face", "fact", "factory", "family", "fan", "farm", "farmer",
    "father", "fault", "favor", "feature", "fence", "festival", "field",
    "figure", "film", "finger", "flag", "flat", "flight", "floor",
    "flower", "folder", "food", "forest", "fork", "form", "friend",
    "front", "fruit", "future", "game", "garden", "gate", "gift", "girl",
    "glass", "goal", "grade", "grandmother", "grass", "group", "guest",
    "guitar", "gun", "habit", "hair", "hall", "hand", "harbor", "hat",
    "head", "heart", "hill", "history", "hole", "holiday", "home",
    "horse", "hospital", "hotel", "hour", "house", "husband", "idea",
    "image", "incident", "industry", "insect", "instrument", "interest",
    "interview", "island", "issue", "item", "jacket", "job", "joke",
    "journal", "journey", "judge", "juice", "key", "kid", "king",
    "kitchen", "lady", "lake", "lamp", "land", "language", "laptop",
    "law", "lawyer", "leader", "league", "lecture", "lesson", "letter",
    "level", "library", "line", "link", "lion", "lip", "list", "lunch",
    "machine", "magazine", "manager", "map", "market", "marriage",
    "master", "meal", "meaning", "meeting", "member", "memory",
    "message", "metal", "meter", "method", "midnight", "mile", "mind",
    "minute", "mirror", "mistake", "model", "mom", "moment", "month",
    "morning", "mother", "mountain", "movie", "museum", "name",
    "nation", "neighbor", "nephew", "network", "night", "noise", "noon",
    "nose", "note", "notebook", "novel", "number", "nurse", "object",
    "ocean", "office", "officer", "opinion", "option", "orange", "order",
    "owner", "page", "pain", "painting", "pair", "palace", "paper",
    "parent", "park", "part", "partner", "party", "passenger", "past",
    "path", "patient", "pattern", "pen", "pencil", "phone", "photo",
    "piano", "picture", "piece", "pilot", "place", "plan", "plane",
    "planet", "plant", "plate", "player", "pocket", "poem", "poet",
    "point", "policy", "pool", "population", "port", "poster",
    "pot", "president", "price", "prince", "princess", "principle",
    "printer", "prize", "problem", "process", "product", "professor",
    "profile", "project", "promise", "purpose", "quarter", "queen",
    "question", "radio", "railway", "reader", "reason", "recipe",
    "record", "region", "relation", "report", "reporter", "request",
    "response", "restaurant", "result", "review", "reward", "ring",
    "river", "road", "rock", "role", "roof", "room", "route", "rule",
    "sailor", "salad", "sample", "school", "science", "scientist",
    "screen", "sea", "season", "seat", "second", "secret", "secretary",
    "section", "sector", "sentence", "service", "session",
    "shadow", "shape", "ship", "shirt", "shoe", "shop", "shoulder",
    "side", "sign", "signal", "singer", "sister", "site", "situation",
    "size", "skill", "skirt", "sky", "smile", "snake", "society",
    "soldier", "solution", "son", "song", "sound", "soup", "source",
    "speaker", "speech", "speed", "sport", "spot", "spring", "square",
    "stage", "stair", "star", "statement", "station", "statue", "step",
    "stick", "stomach", "stone", "store", "storm", "story", "stranger",
    "strategy", "street", "structure", "student", "studio", "style",
    "subject", "suit", "summer", "sun", "supper", "surface", "symbol",
    "system", "table", "target", "task", "taxi", "tea", "teacher",
    "team", "tear", "term", "text", "theater", "theme", "theory",
    "thing", "throat", "ticket", "tiger", "time", "title", "toe",
    "tongue", "tool", "topic", "tour", "tourist", "towel", "tower",
    "town", "toy", "track", "trade", "tradition", "train", "tree",
    "trick", "trip", "truck", "trumpet", "tune", "tunnel", "turn",
    "uncle", "unit", "university", "valley", "value", "van", "vehicle",
    "version", "victim", "victory", "view", "village",
    "visitor", "voice", "wall", "war", "watch", "wave", "way", "weapon",
    "website", "week", "weekend", "wheel", "widow", "window", "winner",
    "winter", "wood", "word", "worker", "world", "writer", "yard",
    "year", "zone",
]

ADJECTIVES = [
    "afraid", "ancient", "angry", "annual", "attractive", "awful", "bad",
    "beautiful", "big", "bitter", "blue", "brave", "bright", "broad",
    "brown", "busy", "calm", "careful", "careless", "casual", "certain",
    "cheap", "clean", "clear", "clever", "cloudy", "cold", "common",
    "complex", "cool", "correct", "crazy", "cultural", "curious", "dark",
    "deep", "dirty", "distant", "dry", "eager", "early", "easy",
    "economic", "emotional", "empty", "excellent", "exact", "fair",
    "famous", "fantastic", "fast", "fierce", "final", "fine", "flat",
    "foolish", "formal", "fresh", "friendly", "full", "funny", "gentle",
    "glad", "grand", "gray", "great", "green", "handsome", "happy",
    "hard", "healthy", "heavy", "high", "honest", "horrible", "hot",
    "huge", "hungry", "icy", "ill", "important", "kind", "large", "late",
    "lazy", "light", "little", "lively", "local", "lonely", "long",
    "loud", "lovely", "loyal", "lucky", "mental", "modern", "narrow",
    "national", "natural", "near", "neat", "nervous", "new", "nice",
    "noisy", "normal", "official", "old", "pale", "perfect", "personal",
    "physical", "pleasant", "polite", "political", "poor", "popular",
    "pretty", "private", "proud", "public", "quick", "quiet", "rainy",
    "rare", "raw", "ready", "recent", "red", "rich", "rough", "round",
    "rude", "sad", "safe", "salty", "serious", "shallow", "sharp",
    "short", "shy", "sick", "silent", "silly", "simple", "sleepy",
    "slow", "small", "smart", "smooth", "snowy", "social", "soft",
    "sour", "special", "steady", "strange", "strict", "strong", "sudden",
    "sunny", "sweet", "tall", "tame", "terrible", "thick", "thin",
    "tidy", "tiny", "tired", "typical", "ugly", "unusual", "warm",
    "weak", "wet", "white", "wide", "wild", "windy", "wise", "wonderful",
    "wrong", "yellow", "young",
]

ADVERBS = [
    "again", "almost", "already", "also", "always", "anywhere", "away",
    "badly", "carefully", "certainly", "clearly", "daily", "easily",
    "else", "even", "ever", "everywhere", "exactly", "finally", "forever",
    "hardly", "here", "indeed", "instead", "just", "lately", "later",
    "loudly", "maybe", "mostly", "nearly", "never", "now", "nowhere",
    "often", "once", "only", "perhaps", "probably", "quickly", "quietly",
    "quite", "rarely", "rather", "really", "recently", "sadly",
    "simply", "slowly", "sometimes", "soon", "still", "suddenly",
    "surely", "then", "there", "today", "together", "tomorrow", "too",
    "twice", "usually", "very", "yesterday", "yet",
]

# Roughly frequency-ranked core: function words, pronouns, auxiliaries.
FUNCTION_WORDS = [
    "the", "of", "and", "a", "to", "in", "is", "was", "that", "it", "he",
    "she", "for", "on", "with", "as", "at", "his", "her", "be", "this",
    "have", "from", "or", "had", "by", "not", "but", "what", "all",
    "were", "we", "when", "your", "can", "said", "there", "an", "each",
    "which", "do", "how", "their", "if", "will", "up", "about", "out",
    "many", "then", "them", "these", "so", "some", "would", "into",
    "has", "more", "two", "like", "him", "no", "could", "than", "been",
    "who", "its", "now", "my", "made", "over", "did", "down", "only",
    "may", "after", "where", "much", "before", "too", "must", "such",
    "because", "our", "me", "even", "any", "those", "us", "you", "they",
    "i", "are", "one", "most", "other", "should", "just", "between",
    "both", "under", "never", "same", "another", "while", "might",
    "shall", "every", "something", "nothing", "anything", "someone",
    "everyone", "anyone", "nobody", "during", "without", "within",
    "against", "among", "through", "until", "since", "off", "above",
    "behind", "beyond", "near", "across", "around", "along", "upon",
    "towards", "despite", "throughout", "including", "following",
    "concerning", "except", "plus", "am", "being", "does", "doing",
    "having", "few", "little", "own", "very", "well", "back", "here",
    "why", "again", "once", "still", "also", "however", "although",
    "though", "unless", "whether", "either", "neither", "nor", "yes",
    "no",
]

PUNCTUATION = [".", ",", "!", "?", ";", ":", "'", '"', "-", "(", ")"]

CAPITALIZED = [
    "The", "A", "An", "This", "That", "These", "Those", "He", "She", "It",
    "I", "We", "They", "You", "My", "His", "Her", "Our", "Their", "Its",
    "There", "Here", "What", "When", "Where", "Why", "How", "Who", "If",
    "In", "On", "At", "For", "But", "And", "Or", "So", "As", "To", "Of",
    "With", "From", "After", "Before", "During", "Because", "While",
    "Although", "Not", "No", "Yes", "One", "Two", "First", "Now", "Then",
    "Today", "Tomorrow", "Yesterday", "People", "Many", "Some", "All",
    "Most", "Every", "Each", "Everyone", "Sometimes", "Usually", "Often",
    "Last", "Next", "Once", "Finally", "However", "Suddenly", "Maybe",
    "Please", "John", "Mary", "Tom", "Anna", "Peter", "Paul", "Sarah",
    "James", "Emma", "David", "Laura", "Mark", "Alice", "Robert",
    "Helen", "Lucy", "Simon", "Kate", "London", "Paris", "Rome",
    "Tokyo", "Berlin", "Madrid", "Europe", "America", "England",
    "France", "Italy", "Spain", "Japan", "Monday", "Tuesday",
    "Wednesday", "Thursday", "Friday", "Saturday", "Sunday", "January",
    "February", "March", "April", "May", "June", "July", "August",
    "September", "October", "November", "December", "Mr", "Mrs", "Dr",
]

NUMBER_WORDS = [
    "three", "four", "five", "six", "seven", "eight", "nine", "ten",
    "eleven", "twelve", "twenty", "thirty", "forty", "fifty", "hundred",
    "thousand", "million", "first", "second", "third", "half", "1", "2",
    "3", "4", "5", "10", "100", "1000", "2000",
]

# --------------------------------------------------------------------------
# Error-pattern inventories
# --------------------------------------------------------------------------

PREPOSITIONS = [
    "", "of", "with", "at", "from", "into", "during", "including",
    "until", "against", "among", "throughout", "despite", "towards",
    "upon", "concerning", "to", "in", "for", "on", "by", "about", "like",
    "through", "over", "before", "between", "after", "since", "without",
    "under", "within", "along", "following", "across", "behind",
    "beyond", "plus", "except", "but", "up", "out", "around", "down",
    "off", "above", "near",
]

DETERMINERS = ["the", "a", "an", "that", "this", ""]

LETTER_PATTERNS = [
    ("mb", "m"), ("bt", "t"), ("tch", "ch"), ("tm", "m"), ("stle", "sle"),
    ("wh", "w"), ("hono", "ono"), ("hou", "ou"), ("hones", "ones"),
    ("rh", "r"), ("kn", "n"), ("sw", "s"), ("wr", "r"), ("who", "ho"),
    ("gn", "n"), ("gu", "g"), ("ui", "i"), ("sc", "s"), ("al", "a"),
    ("pn", "n"), ("ps", "s"), ("pb", "b"), ("dg", "g"), ("dn", "n"),
    ("mn", "m"), ("isl", "il"), ("ough", "uf"), ("through", "thro"),
    ("though", "tho"), ("ea", "ae"), ("ei", "ie"), ("au", "ua"),
    ("exh", "ex"), ("tion", "sion"), ("sion", "tion"), ("sure", "shure"),
    ("cture", "cshre"), ("ere", "ear"), ("ear", "ere"),
]

VOWEL_COMBINATIONS = ["ea", "ou", "ei", "ie", "ai", "uo", "io", "oi", "au", "ua", "ow", "wo"]

SIMILAR_SOUND = [
    ("a", ["u"]),
    ("b", ["p"]),
    ("p", ["b"]),
    ("e", ["i", "a"]),
    ("o", ["u", "w"]),
    ("f", ["v"]),
    ("w", ["o", "u"]),
    ("u", ["a", "o", "w"]),
    ("i", ["e", "a", "y"]),
    ("v", ["f"]),
    ("y", ["i"]),
]

APPEND_COUNT = 1193
REPLACE_COUNT = 3725


def build_wordlist(verbs: dict) -> list[str]:
    """Frequency-ranked token pool for the append/replace inventories."""
    lexicon = Lexicon(
        verb_forms={},
        plural_of=dict(IRREGULAR_PLURALS),
        singular_of={p: s for s, p in IRREGULAR_PLURALS},
    )
    seen: set[str] = set()
    ranked: list[str] = []

    def push(words) -> None:
        for w in words:
            if w and w not in seen:
                seen.add(w)
                ranked.append(w)

    push(FUNCTION_WORDS)
    push(PUNCTUATION)
    push(p for p in PREPOSITIONS if p)
    push(d for d in DETERMINERS if d)
    push(CAPITALIZED)
    for lemma, forms in verbs.items():
        push([lemma, *forms])
    for noun in NOUNS:
        push([noun, pluralize(noun, lexicon)])
    for singular, plural in IRREGULAR_PLURALS:
        push([singular, plural])
    push(ADJECTIVES)
    safe = [a for a in ADJECTIVES if literal_suffix_safe(a)]
    push(a + "er" for a in safe)
    push(a + "est" for a in safe)
    push(a + "ly" for a in ADJECTIVES if literal_ly_safe(a))
    push(ADVERBS)
    push(NUMBER_WORDS)
    return ranked


def write_lines(path: Path, lines) -> None:
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


def main() -> None:
    from gecedit.tags import MERGE_NAMES, SUFFIX_NAMES, TRANSFORM_NAMES

    DATA.mkdir(parents=True, exist_ok=True)

    verbs = build_verbs()
    write_lines(
        DATA / "verbs.tsv",
        ("\t".join([lemma, *forms]) for lemma, forms in verbs.items()),
    )
    write_lines(
        DATA / "irregular_plurals.tsv",
        (f"{s}\t{p}" for s, p in IRREGULAR_PLURALS),
    )

    write_lines(DATA / "prepositions.txt", PREPOSITIONS)
    write_lines(DATA / "determiners.txt", DETERMINERS)
    write_lines(DATA / "letter_patterns.tsv", (f"{k}\t{v}" for k, v in LETTER_PATTERNS))
    write_lines(DATA / "vowel_combinations.txt", VOWEL_COMBINATIONS)
    write_lines(DATA / "similar_sound.tsv", (f"{k}\t{','.join(v)}" for k, v in SIMILAR_SOUND))
    write_lines(DATA / "adjectives.txt", ADJECTIVES)

    wordlist = build_wordlist(verbs)
    if len(wordlist) < REPLACE_COUNT:
        raise SystemExit(
            f"word pool too small: {len(wordlist)} < {REPLACE_COUNT}; extend the lists"
        )
    tag_lines = ["$KEEP", "$DELETE", "$UNKNOWN"]
    tag_lines += [f"$MERGE_{n}" for n in MERGE_NAMES]
    tag_lines += [f"$TRANSFORM_{n}" for n in TRANSFORM_NAMES]
    tag_lines += [f"$SUFFIXTRANSFORM_{n}" for n in SUFFIX_NAMES]
    tag_lines += [f"$APPEND_{w}" for w in wordlist[:APPEND_COUNT]]
    tag_lines += [f"$REPLACE_{w}" for w in wordlist[:REPLACE_COUNT]]
    write_lines(DATA / "default.tagset", tag_lines)

    profile_lines = ["# Uniform weights over the inventory-backed operations.", "expected_errors = 1.0", "rng_seed = 13"]
    profile_lines += [f"{op} = 1.0" for op in OPERATIONS if op != "token_dict"]
    write_lines(DATA / "default.profile", profile_lines)

    manifest = {
        "files": {
            name: hashlib.sha256((DATA / name).read_bytes()).hexdigest()
            for name in PATTERN_FILES
        }
    }
    (DATA / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"verbs: {len(verbs)} lemmas")
    print(f"wordlist: {len(wordlist)} tokens")
    print(f"tagset: {len(tag_lines)} tags")


if __name__ == "__main__":
    main()
